// Shared pieces of the host-cost benchmark: timing, spans, output checks,
// the simulated-statistics digest and the workload interface.
//
// Simulated statistics are deterministic and must repeat exactly; only host
// time is noisy, and only host time is reported as a metric.
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/runtime.hpp"
#include "load/arrivals.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Median of a non-empty sample (copies; samples are small).
double median(std::vector<double> v);

/// Peak resident set of this process so far, in MB.
double peak_rss_mb();

/// In-memory span log: name, start, end and parent, written out when the
/// benchmark ends. A null Spans* in ScopedSpan records nothing, so untraced
/// runs pay one pointer test per span site.
class Spans {
 public:
  struct Span {
    std::string name;
    double start_s = 0.0;
    double end_s = 0.0;
    int parent = -1;
  };
  Spans() : origin_(Clock::now()) {}
  int open(std::string name);
  void close(int id);
  [[nodiscard]] std::string to_json(const std::string& workload) const;

 private:
  Clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

class ScopedSpan {
 public:
  ScopedSpan(Spans* s, std::string name)
      : s_(s), id_(s != nullptr ? s->open(std::move(name)) : -1) {}
  ~ScopedSpan() {
    if (s_ != nullptr) s_->close(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Spans* s_;
  int id_;
};

/// Named output checks; each is one operation of the run. A check is a
/// callable returning "" on success or a failure detail, which is printed
/// to stderr; its span covers the check's own computation.
class Checks {
 public:
  explicit Checks(Spans* spans = nullptr) : spans_(spans) {}
  template <typename Fn>
  void expect(const std::string& name, Fn&& check) {
    ScopedSpan span(spans_, "check." + name);
    record(name, check());
  }
  [[nodiscard]] std::uint64_t attempted() const noexcept { return n_; }
  [[nodiscard]] std::uint64_t failed() const noexcept { return failed_; }

 private:
  void record(const std::string& name, const std::string& failure);

  Spans* spans_;
  std::uint64_t n_ = 0;
  std::uint64_t failed_ = 0;
};

/// Ordered simulated statistics of one run (name, value).
using Digest = std::vector<std::pair<std::string, std::uint64_t>>;

/// "" when `ok`, else `detail`: the result of a simple check.
inline std::string unless(bool ok, const std::string& detail) {
  return ok ? std::string() : detail;
}

/// FNV-1a over a byte string (digests the adaptation log).
std::uint64_t fnv1a(const std::string& s);

/// Compare two digests key by key; returns "" when equal, else a message
/// naming the first statistic that differs.
std::string digest_diff(const Digest& want, const Digest& got);

std::string digest_text(const Digest& d);
/// Parse digest_text() output; returns false on malformed input.
bool parse_digest(const std::string& text, Digest& out);

/// One pinned workload: the runtime it needs, the inputs the benchmark
/// generates, the timed call into the simulator, and the output checks.
class Workload {
 public:
  virtual ~Workload() = default;
  /// Runtime configuration of the untraced run.
  [[nodiscard]] virtual cool::SystemConfig config() const = 0;
  /// Generate the inputs the benchmark owns (timed as set-up).
  virtual void make_inputs(cool::Runtime& rt) { (void)rt; }
  /// The timed call: one full simulated run.
  virtual void run(cool::Runtime& rt) = 0;
  /// Output checks of the finished run, computed apart from the program.
  virtual void check(const cool::Runtime& rt, Checks& c) = 0;
  /// Requests (serving) or tasks (batch) the run attempted, and how many of
  /// them the checks found wrong.
  [[nodiscard]] virtual std::uint64_t units() const = 0;
  [[nodiscard]] virtual std::uint64_t failed_units() const = 0;
  /// Workload-specific statistics appended to the digest.
  virtual void digest_extra(Digest& d) const { (void)d; }
  /// The arrival trace of a serving workload (null for batch workloads).
  [[nodiscard]] virtual const std::vector<std::uint64_t>* arrivals() const {
    return nullptr;
  }
  /// Simulated line references issued by the run (from the PerfMonitor).
  [[nodiscard]] static std::uint64_t refs(const cool::Runtime& rt);
};

/// Build a workload whose inputs derive from `seed` (nullptr if unknown).
std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed);
/// Arrival-trace configuration of the serving workload for `seed`; the
/// traced run times load::generate_arrivals on it for every workload.
cool::load::ArrivalConfig serving_arrivals(std::uint64_t seed);
/// The seed whose digests the reference files hold.
constexpr std::uint64_t kDefaultSeed = 1;

/// Simulated statistics of a finished run.
Digest digest_of(const cool::Runtime& rt, const Workload& w);

}  // namespace perfbench
