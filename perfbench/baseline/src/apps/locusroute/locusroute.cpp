#include "apps/locusroute/locusroute.hpp"

#include <algorithm>
#include <cstdio>
#include <new>

#include "common/rng.hpp"

namespace cool::apps::locusroute {

const char* variant_name(Variant v) {
  switch (v) {
    case Variant::kBase:
      return "Base";
    case Variant::kAffinity:
      return "Affinity";
    case Variant::kAffinityDistr:
      return "Affinity+ObjectDistr";
  }
  return "?";
}

sched::Policy policy_for(Variant v) {
  sched::Policy p;
  p.honor_affinity = v != Variant::kBase;
  return p;
}

namespace {

/// One routing cell: wires crossing horizontally / vertically. Atomics so
/// rip-out/commit updates are exact under the real-threads engine too.
struct CostCell {
  std::atomic<int> h;
  std::atomic<int> v;
};
static_assert(sizeof(CostCell) == 8, "cost cell should be 8 bytes");

struct Region {
  CostCell* cells = nullptr;  ///< height * w cells, row-major.
  int x0 = 0;
  int w = 0;
};

/// A straight piece of a candidate route.
struct Seg {
  bool horiz = false;
  int fixed = 0;  ///< y for horizontal, x for vertical.
  int lo = 0, hi = 0;
};

struct App {
  Config cfg;
  int height = 0;
  int width = 0;
  int nregions = 0;
  std::uint32_t procs = 0;
  std::vector<Region> regions;
  Wire* wires = nullptr;
  int n_wires = 0;
  std::vector<int> spawn_order;  ///< Netlist order: geographically scattered.
  std::atomic<std::uint64_t> on_region_proc{0};
  std::atomic<std::uint64_t> routed_tasks{0};

  [[nodiscard]] int region_of_x(int x) const { return x / cfg.region_w; }
  [[nodiscard]] int region_of_wire(const Wire& w) const {
    return region_of_x((w.a.x + w.b.x) / 2);
  }
  [[nodiscard]] CostCell* cell(int x, int y) const {
    const Region& r = regions[static_cast<std::size_t>(region_of_x(x))];
    return &r.cells[static_cast<std::size_t>(y) * r.w + (x - r.x0)];
  }
};

constexpr int kCandidates = 3;

/// Decompose candidate `cand` for `w` into segments. Returns segment count.
int candidate_segs(const Wire& w, int cand, Seg out[3]) {
  const int xa = w.a.x, ya = w.a.y, xb = w.b.x, yb = w.b.y;
  int n = 0;
  auto hseg = [&](int y, int x1, int x2) {
    if (x1 == x2) return;
    out[n++] = Seg{true, y, std::min(x1, x2), std::max(x1, x2)};
  };
  auto vseg = [&](int x, int y1, int y2) {
    if (y1 == y2) return;
    out[n++] = Seg{false, x, std::min(y1, y2), std::max(y1, y2)};
  };
  switch (cand) {
    case 0:  // horizontal-first L
      hseg(ya, xa, xb);
      vseg(xb, ya, yb);
      break;
    case 1:  // vertical-first L
      vseg(xa, ya, yb);
      hseg(yb, xa, xb);
      break;
    default: {  // Z: horizontal to the midpoint column, vertical, horizontal
      const int xm = (xa + xb) / 2;
      hseg(ya, xa, xm);
      vseg(xm, ya, yb);
      hseg(yb, xm, xb);
      break;
    }
  }
  if (n == 0) {
    // Degenerate wire (both pins in the same cell): a single-cell "route".
    out[n++] = Seg{true, ya, xa, xa};
  }
  return n;
}

/// Walk a horizontal cell range, charging contiguous per-region reads.
template <typename Fn>
void walk_h(Ctx& c, App* a, int y, int xlo, int xhi, bool update, Fn&& fn) {
  int x = xlo;
  while (x <= xhi) {
    const Region& r =
        a->regions[static_cast<std::size_t>(a->region_of_x(x))];
    const int xend = std::min(xhi, r.x0 + r.w - 1);
    CostCell* first = a->cell(x, y);
    const std::size_t bytes =
        static_cast<std::size_t>(xend - x + 1) * sizeof(CostCell);
    if (update) {
      c.update(first, bytes);
    } else {
      c.read(first, bytes);
    }
    for (int xx = x; xx <= xend; ++xx) fn(*a->cell(xx, y));
    x = xend + 1;
  }
}

/// Walk a vertical cell range (strided: one charge per cell).
template <typename Fn>
void walk_v(Ctx& c, App* a, int x, int ylo, int yhi, bool update, Fn&& fn) {
  for (int y = ylo; y <= yhi; ++y) {
    CostCell* cell = a->cell(x, y);
    if (update) {
      c.update(cell, sizeof(CostCell));
    } else {
      c.read(cell, sizeof(CostCell));
    }
    fn(*cell);
  }
}

std::uint64_t eval_candidate(Ctx& c, App* a, const Wire& w, int cand) {
  Seg segs[3];
  const int n = candidate_segs(w, cand, segs);
  std::uint64_t cost = 0;
  for (int i = 0; i < n; ++i) {
    const Seg& s = segs[i];
    if (s.horiz) {
      walk_h(c, a, s.fixed, s.lo, s.hi, false, [&](CostCell& cell) {
        cost += static_cast<std::uint64_t>(
                    cell.h.load(std::memory_order_relaxed)) +
                1;
      });
    } else {
      walk_v(c, a, s.fixed, s.lo, s.hi, false, [&](CostCell& cell) {
        cost += static_cast<std::uint64_t>(
                    cell.v.load(std::memory_order_relaxed)) +
                1;
      });
    }
  }
  c.work(static_cast<std::uint64_t>(n) * 8);
  return cost;
}

void apply_route(Ctx& c, App* a, const Wire& w, int cand, int delta) {
  Seg segs[3];
  const int n = candidate_segs(w, cand, segs);
  for (int i = 0; i < n; ++i) {
    const Seg& s = segs[i];
    if (s.horiz) {
      walk_h(c, a, s.fixed, s.lo, s.hi, true, [&](CostCell& cell) {
        cell.h.fetch_add(delta, std::memory_order_relaxed);
      });
    } else {
      walk_v(c, a, s.fixed, s.lo, s.hi, true, [&](CostCell& cell) {
        cell.v.fetch_add(delta, std::memory_order_relaxed);
      });
    }
  }
}

TaskFn route_wire(App* a, int widx) {
  auto& c = co_await self();
  Wire& w = a->wires[widx];
  c.read(&w, sizeof w);

  if (w.route >= 0) apply_route(c, a, w, w.route, -1);  // rip out

  int best = 0;
  std::uint64_t best_cost = ~0ull;
  for (int cand = 0; cand < kCandidates; ++cand) {
    const std::uint64_t cost = eval_candidate(c, a, w, cand);
    if (cost < best_cost) {
      best_cost = cost;
      best = cand;
    }
  }
  w.route = best;
  c.write(&w, sizeof w);
  apply_route(c, a, w, best, +1);

  a->routed_tasks.fetch_add(1, std::memory_order_relaxed);
  const auto expect = static_cast<topo::ProcId>(
      static_cast<std::uint32_t>(a->region_of_wire(w)) % a->procs);
  if (c.proc() == expect) {
    a->on_region_proc.fetch_add(1, std::memory_order_relaxed);
  }
}

TaskFn root_task(App* a) {
  auto& c = co_await self();
  for (int iter = 0; iter < a->cfg.iterations; ++iter) {
    TaskGroup waitfor;
    for (const int i : a->spawn_order) {
      const Wire& w = a->wires[i];
      Affinity aff = Affinity::none();
      if (a->cfg.variant != Variant::kBase) {
        const int r = a->region_of_wire(w);
        // Figure 9: processor affinity by geographic region; the region's
        // cell block also keys the task-affinity set so a region's wires
        // run back-to-back.
        aff = Affinity::processor_task(
            r, a->regions[static_cast<std::size_t>(r)].cells);
      }
      c.spawn(aff, waitfor, route_wire(a, i));
    }
    co_await c.wait(waitfor);
  }
}

}  // namespace

Result run(Runtime& rt, const Config& cfg) {
  COOL_CHECK(cfg.region_w >= 4 && cfg.height >= 4, "locusroute: grid too small");
  COOL_CHECK(cfg.wires_per_region >= 1, "locusroute: need wires");
  const auto P = rt.machine().n_procs;

  App app;
  app.cfg = cfg;
  app.procs = P;
  app.nregions = cfg.regions > 0 ? cfg.regions : static_cast<int>(P);
  app.height = cfg.height;
  app.width = app.nregions * cfg.region_w;

  // CostArray regions: contiguous per-region blocks, optionally distributed.
  app.regions.resize(static_cast<std::size_t>(app.nregions));
  for (int r = 0; r < app.nregions; ++r) {
    const std::int64_t home =
        cfg.variant == Variant::kAffinityDistr ? (r % static_cast<int>(P)) : 0;
    auto& region = app.regions[static_cast<std::size_t>(r)];
    region.x0 = r * cfg.region_w;
    region.w = cfg.region_w;
    region.cells = static_cast<CostCell*>(rt.alloc_bytes(
        static_cast<std::size_t>(cfg.height) * cfg.region_w * sizeof(CostCell),
        home));
    for (std::size_t i = 0;
         i < static_cast<std::size_t>(cfg.height) * cfg.region_w; ++i) {
      new (&region.cells[i]) CostCell{};
    }
  }

  // Synthetic circuit: dense short wires inside each region, a fraction
  // crossing into the neighbour (the paper used a synthetic input too).
  util::Rng rng(cfg.seed);
  app.n_wires = app.nregions * cfg.wires_per_region;
  app.wires =
      rt.alloc_array<Wire>(static_cast<std::size_t>(app.n_wires), 0);
  int wi = 0;
  for (int r = 0; r < app.nregions; ++r) {
    const int x0 = r * cfg.region_w;
    for (int k = 0; k < cfg.wires_per_region; ++k) {
      Wire w;
      w.a.x = x0 + static_cast<int>(rng.next_below(
                       static_cast<std::uint64_t>(cfg.region_w)));
      w.a.y = static_cast<int>(
          rng.next_below(static_cast<std::uint64_t>(cfg.height)));
      int bx0 = x0;
      if (rng.next_double() < cfg.cross_fraction && app.nregions > 1) {
        // Endpoint in an adjacent region.
        const int rr = r + (rng.next_double() < 0.5 || r == app.nregions - 1
                                ? (r > 0 ? -1 : 1)
                                : 1);
        bx0 = rr * cfg.region_w;
      }
      w.b.x = bx0 + static_cast<int>(rng.next_below(
                        static_cast<std::uint64_t>(cfg.region_w)));
      w.b.y = static_cast<int>(
          rng.next_below(static_cast<std::uint64_t>(cfg.height)));
      w.route = -1;
      app.wires[wi++] = w;
    }
  }

  // Wires are routed in netlist order, which scatters geographically —
  // consecutive tasks belong to different regions (this is what makes the
  // region task-affinity grouping and processor hints matter; a circuit's
  // signal numbering has no geographic locality).
  app.spawn_order.resize(static_cast<std::size_t>(app.n_wires));
  for (int i = 0; i < app.n_wires; ++i) {
    app.spawn_order[static_cast<std::size_t>(i)] = i;
  }
  util::Rng order_rng(cfg.seed ^ 0x5a5a5a5aull);
  for (int i = app.n_wires - 1; i > 0; --i) {
    const auto j = static_cast<int>(
        order_rng.next_below(static_cast<std::uint64_t>(i) + 1));
    std::swap(app.spawn_order[static_cast<std::size_t>(i)],
              app.spawn_order[static_cast<std::size_t>(j)]);
  }

  {
    char name[32];
    for (int r = 0; r < app.nregions; ++r) {
      std::snprintf(name, sizeof name, "cost_region[%d]", r);
      rt.profile_register(
          name, app.regions[static_cast<std::size_t>(r)].cells,
          static_cast<std::size_t>(cfg.height) * cfg.region_w *
              sizeof(CostCell));
    }
    rt.profile_register("wires", app.wires,
                        static_cast<std::size_t>(app.n_wires) * sizeof(Wire));
  }

  rt.run(root_task(&app));

  // Consistency invariant: replaying the final routes must reproduce the
  // incrementally maintained CostArray exactly.
  {
    std::vector<std::vector<std::pair<int, int>>> replay(
        static_cast<std::size_t>(app.nregions),
        std::vector<std::pair<int, int>>(
            static_cast<std::size_t>(cfg.height) * cfg.region_w, {0, 0}));
    auto replay_cell = [&](int x, int y) -> std::pair<int, int>& {
      const int r = app.region_of_x(x);
      return replay[static_cast<std::size_t>(r)]
                   [static_cast<std::size_t>(y) * cfg.region_w +
                    (x - app.regions[static_cast<std::size_t>(r)].x0)];
    };
    for (int i = 0; i < app.n_wires; ++i) {
      const Wire& w = app.wires[i];
      COOL_CHECK(w.route >= 0, "locusroute: wire left unrouted");
      Seg segs[3];
      const int n = candidate_segs(w, w.route, segs);
      for (int si = 0; si < n; ++si) {
        const Seg& s = segs[si];
        if (s.horiz) {
          for (int x = s.lo; x <= s.hi; ++x) ++replay_cell(x, s.fixed).first;
        } else {
          for (int y = s.lo; y <= s.hi; ++y) ++replay_cell(s.fixed, y).second;
        }
      }
    }
    for (int x = 0; x < app.width; ++x) {
      for (int y = 0; y < cfg.height; ++y) {
        const auto& expect = replay_cell(x, y);
        const CostCell* got = app.cell(x, y);
        COOL_CHECK(got->h.load() == expect.first &&
                       got->v.load() == expect.second,
                   "locusroute: CostArray inconsistent with final routes");
      }
    }
  }

  Result res;
  for (int x = 0; x < app.width; ++x) {
    for (int y = 0; y < cfg.height; ++y) {
      const CostCell* cell = app.cell(x, y);
      const auto h = static_cast<std::uint64_t>(cell->h.load());
      const auto v = static_cast<std::uint64_t>(cell->v.load());
      res.total_occupancy += h + v;
      res.total_route_cost += h * h + v * v;
    }
  }
  const auto routed = app.routed_tasks.load();
  if (routed > 0) {
    res.region_adherence =
        static_cast<double>(app.on_region_proc.load()) /
        static_cast<double>(routed);
  }
  res.run = collect(rt, static_cast<double>(res.total_route_cost));
  return res;
}

}  // namespace cool::apps::locusroute
