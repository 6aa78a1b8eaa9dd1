#include "core/trace.hpp"

#include <algorithm>

#include "common/table.hpp"

namespace cool {

std::string render_trace_report(const std::vector<obs::Event>& events,
                                std::uint32_t n_procs, std::uint64_t finish,
                                int width) {
  width = std::max(8, width);
  std::vector<std::uint64_t> busy(n_procs, 0);
  std::vector<std::uint64_t> spans(n_procs, 0);
  std::vector<std::uint64_t> stolen(n_procs, 0);
  // Busy cycles per (proc, timeline bucket).
  std::vector<std::vector<std::uint64_t>> buckets(
      n_procs, std::vector<std::uint64_t>(static_cast<std::size_t>(width), 0));
  const std::uint64_t span_total = std::max<std::uint64_t>(finish, 1);
  const double per_bucket =
      static_cast<double>(span_total) / static_cast<double>(width);

  for (const obs::Event& e : events) {
    if (e.kind != obs::EventKind::kTaskSpan) continue;
    if (e.proc >= n_procs || e.end < e.start) continue;
    busy[e.proc] += e.end - e.start;
    spans[e.proc] += 1;
    if ((e.flags & obs::kSpanStolen) != 0) stolen[e.proc] += 1;
    // Spread the span over the buckets it overlaps.
    std::uint64_t t = e.start;
    while (t < e.end) {
      const auto b = std::min<std::size_t>(
          static_cast<std::size_t>(static_cast<double>(t) / per_bucket),
          static_cast<std::size_t>(width) - 1);
      const std::uint64_t bucket_end = std::min<std::uint64_t>(
          e.end, static_cast<std::uint64_t>(per_bucket * (static_cast<double>(b) + 1.0)));
      const std::uint64_t step = std::max<std::uint64_t>(bucket_end, t + 1) - t;
      buckets[e.proc][b] += step;
      t += step;
    }
  }

  util::Table t({"proc", "spans", "stolen", "busy%", "timeline"});
  for (std::uint32_t p = 0; p < n_procs; ++p) {
    std::string line;
    line.reserve(static_cast<std::size_t>(width));
    for (int b = 0; b < width; ++b) {
      const double frac =
          static_cast<double>(buckets[p][static_cast<std::size_t>(b)]) /
          per_bucket;
      line += frac >= 0.75 ? '#' : frac >= 0.25 ? '+' : frac > 0.0 ? '.' : ' ';
    }
    t.row()
        .cell("p" + std::to_string(p))
        .cell(spans[p])
        .cell(stolen[p])
        .cell(100.0 * static_cast<double>(busy[p]) /
                  static_cast<double>(span_total),
              1)
        .cell(line);
  }
  return t.to_string();
}

}  // namespace cool
