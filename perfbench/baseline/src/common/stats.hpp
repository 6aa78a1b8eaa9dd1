// Lightweight statistics accumulators used by the performance monitor and the
// benchmark harness, plus the sharding helper concurrent counters build on.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "common/error.hpp"

namespace cool::util {

/// Fixed array of cache-line-aligned shards of T, one per concurrent writer
/// (e.g. one per scheduler server). Writers update only their own shard, so
/// hot counters never false-share a cache line; readers fold the shards into
/// an aggregate. T must be default-constructible; it need not be copyable or
/// movable (atomics are fine).
template <typename T>
class Sharded {
 public:
  explicit Sharded(std::size_t n_shards) : shards_(n_shards) {
    COOL_CHECK(n_shards >= 1, "Sharded needs at least one shard");
  }

  Sharded(const Sharded&) = delete;
  Sharded& operator=(const Sharded&) = delete;

  [[nodiscard]] std::size_t n_shards() const noexcept { return shards_.size(); }

  /// The shard for writer `i`; out-of-range writers wrap around.
  [[nodiscard]] T& shard(std::size_t i) noexcept {
    return shards_[i % shards_.size()].value;
  }
  [[nodiscard]] const T& shard(std::size_t i) const noexcept {
    return shards_[i % shards_.size()].value;
  }

  /// Fold every shard into `acc` via `fn(acc, shard)` and return it. Shards
  /// are visited in index order, so aggregation is deterministic.
  template <typename Acc, typename Fn>
  [[nodiscard]] Acc aggregate(Acc acc, Fn&& fn) const {
    for (const Cell& c : shards_) fn(acc, c.value);
    return acc;
  }

 private:
  struct alignas(64) Cell {
    T value{};
  };
  std::vector<Cell> shards_;
};

/// Streaming mean/variance/min/max (Welford's algorithm).
class RunningStat {
 public:
  void add(double x) noexcept {
    ++n_;
    const double delta = x - mean_;
    mean_ += delta / static_cast<double>(n_);
    m2_ += delta * (x - mean_);
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
    sum_ += x;
  }

  [[nodiscard]] std::uint64_t count() const noexcept { return n_; }
  [[nodiscard]] double sum() const noexcept { return sum_; }
  [[nodiscard]] double mean() const noexcept { return n_ ? mean_ : 0.0; }
  [[nodiscard]] double variance() const noexcept {
    return n_ > 1 ? m2_ / static_cast<double>(n_ - 1) : 0.0;
  }
  [[nodiscard]] double stddev() const noexcept { return std::sqrt(variance()); }
  [[nodiscard]] double min() const noexcept { return n_ ? min_ : 0.0; }
  [[nodiscard]] double max() const noexcept { return n_ ? max_ : 0.0; }

  void reset() noexcept { *this = RunningStat{}; }

 private:
  std::uint64_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double sum_ = 0.0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
};

/// Fixed-bucket histogram over [0, bucket_width * n_buckets); the last bucket
/// also absorbs overflow. Used e.g. for task run-length distributions.
class Histogram {
 public:
  Histogram(double bucket_width, std::size_t n_buckets)
      : width_(bucket_width), counts_(n_buckets, 0) {
    COOL_CHECK(bucket_width > 0.0, "bucket width must be positive");
    COOL_CHECK(n_buckets > 0, "need at least one bucket");
  }

  void add(double x) noexcept {
    auto idx = static_cast<std::size_t>(std::max(0.0, x) / width_);
    idx = std::min(idx, counts_.size() - 1);
    ++counts_[idx];
    ++total_;
  }

  [[nodiscard]] std::uint64_t total() const noexcept { return total_; }
  [[nodiscard]] std::uint64_t bucket(std::size_t i) const {
    COOL_CHECK(i < counts_.size(), "histogram bucket out of range");
    return counts_[i];
  }
  [[nodiscard]] std::size_t n_buckets() const noexcept { return counts_.size(); }

  /// Value below which `q` (0..1) of samples fall (bucket upper edge).
  [[nodiscard]] double quantile(double q) const {
    COOL_CHECK(q >= 0.0 && q <= 1.0, "quantile must be in [0,1]");
    if (total_ == 0) return 0.0;
    const auto target = static_cast<std::uint64_t>(
        q * static_cast<double>(total_));
    std::uint64_t seen = 0;
    for (std::size_t i = 0; i < counts_.size(); ++i) {
      seen += counts_[i];
      if (seen >= target) return width_ * static_cast<double>(i + 1);
    }
    return width_ * static_cast<double>(counts_.size());
  }

 private:
  double width_;
  std::vector<std::uint64_t> counts_;
  std::uint64_t total_ = 0;
};

}  // namespace cool::util
