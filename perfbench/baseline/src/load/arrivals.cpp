#include "load/arrivals.hpp"

#include <cmath>
#include <numbers>

#include "common/error.hpp"
#include "common/rng.hpp"

namespace cool::load {

const char* arrival_kind_name(ArrivalKind k) noexcept {
  switch (k) {
    case ArrivalKind::kPoisson:
      return "poisson";
    case ArrivalKind::kBursty:
      return "bursty";
    case ArrivalKind::kDiurnal:
      return "diurnal";
  }
  return "?";
}

ArrivalKind parse_arrival_kind(const std::string& name) {
  if (name == "poisson") return ArrivalKind::kPoisson;
  if (name == "bursty") return ArrivalKind::kBursty;
  if (name == "diurnal") return ArrivalKind::kDiurnal;
  throw util::Error("unknown arrival kind: " + name +
                    " (want poisson|bursty|diurnal)");
}

namespace {

/// Exponential variate with the given mean (mean > 0), strictly positive.
double exp_variate(util::Rng& rng, double mean) {
  // 1 - next_double() is in (0, 1], so the log argument never hits zero.
  return -mean * std::log(1.0 - rng.next_double());
}

std::vector<std::uint64_t> poisson_trace(const ArrivalConfig& cfg,
                                         util::Rng& rng) {
  const double mean_gap = 1000.0 / cfg.rate_per_kcycle;
  std::vector<std::uint64_t> out;
  out.reserve(cfg.n_requests);
  double t = static_cast<double>(cfg.start_cycle);
  for (std::uint64_t i = 0; i < cfg.n_requests; ++i) {
    t += exp_variate(rng, mean_gap);
    out.push_back(static_cast<std::uint64_t>(t));
  }
  return out;
}

std::vector<std::uint64_t> bursty_trace(const ArrivalConfig& cfg,
                                        util::Rng& rng) {
  COOL_CHECK(cfg.burst_mult > 0 && cfg.calm_mult > 0,
             "bursty arrivals need positive rate multipliers");
  std::vector<std::uint64_t> out;
  out.reserve(cfg.n_requests);
  double t = static_cast<double>(cfg.start_cycle);
  bool burst = false;  // start calm
  double phase_end =
      t + exp_variate(rng, static_cast<double>(cfg.calm_dwell_cycles));
  while (out.size() < cfg.n_requests) {
    const double mult = burst ? cfg.burst_mult : cfg.calm_mult;
    const double mean_gap = 1000.0 / (cfg.rate_per_kcycle * mult);
    const double next = t + exp_variate(rng, mean_gap);
    if (next >= phase_end) {
      // The gap straddles a phase switch: restart the (memoryless)
      // exponential clock at the boundary under the new rate.
      t = phase_end;
      burst = !burst;
      const auto dwell = static_cast<double>(
          burst ? cfg.burst_dwell_cycles : cfg.calm_dwell_cycles);
      phase_end = t + exp_variate(rng, dwell);
      continue;
    }
    t = next;
    out.push_back(static_cast<std::uint64_t>(t));
  }
  return out;
}

std::vector<std::uint64_t> diurnal_trace(const ArrivalConfig& cfg,
                                         util::Rng& rng) {
  COOL_CHECK(cfg.depth >= 0.0 && cfg.depth < 1.0,
             "diurnal depth must be in [0, 1)");
  COOL_CHECK(cfg.period_cycles > 0, "diurnal period must be positive");
  // Lewis-Shedler thinning: candidates at the peak rate, accepted with
  // probability rate(t)/peak_rate.
  const double base = cfg.rate_per_kcycle / 1000.0;  // per cycle
  const double peak = base * (1.0 + cfg.depth);
  const double mean_gap = 1.0 / peak;
  const double omega =
      2.0 * std::numbers::pi / static_cast<double>(cfg.period_cycles);
  std::vector<std::uint64_t> out;
  out.reserve(cfg.n_requests);
  double t = static_cast<double>(cfg.start_cycle);
  while (out.size() < cfg.n_requests) {
    t += exp_variate(rng, mean_gap);
    const double rate_t = base * (1.0 + cfg.depth * std::sin(omega * t));
    if (rng.next_double() * peak < rate_t) {
      out.push_back(static_cast<std::uint64_t>(t));
    }
  }
  return out;
}

}  // namespace

std::vector<std::uint64_t> generate_arrivals(const ArrivalConfig& cfg) {
  COOL_CHECK(cfg.rate_per_kcycle > 0.0,
             "arrival rate must be positive (requests per kcycle)");
  util::Rng rng(cfg.seed);
  switch (cfg.kind) {
    case ArrivalKind::kPoisson:
      return poisson_trace(cfg, rng);
    case ArrivalKind::kBursty:
      return bursty_trace(cfg, rng);
    case ArrivalKind::kDiurnal:
      return diurnal_trace(cfg, rng);
  }
  return {};
}

std::uint64_t trace_digest(const std::vector<std::uint64_t>& trace) noexcept {
  std::uint64_t h = 0xcbf29ce484222325ull;  // FNV-1a over the raw stamps
  for (const std::uint64_t v : trace) {
    for (int b = 0; b < 8; ++b) {
      h ^= (v >> (8 * b)) & 0xff;
      h *= 0x100000001b3ull;
    }
  }
  return h;
}

}  // namespace cool::load
