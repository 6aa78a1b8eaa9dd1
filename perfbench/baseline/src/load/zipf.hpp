// Zipf(theta) sampler over a small key space, via a precomputed CDF.
//
// Hot-key skew is the whole point of the serving workload: theta = 0 is
// uniform, theta around 1 concentrates most traffic on the first few keys
// (rank 0 is always the hottest). The key spaces here are tiny (warehouses,
// districts), so an O(log n) CDF binary search per sample is the simple,
// deterministic choice.
#pragma once

#include <cstddef>
#include <vector>

#include "common/rng.hpp"

namespace cool::load {

class ZipfSampler {
 public:
  /// n keys, weights proportional to 1/(rank+1)^theta. theta >= 0.
  ZipfSampler(std::size_t n, double theta);

  /// Draw a key in [0, n); rank 0 is the hottest.
  [[nodiscard]] std::size_t sample(util::Rng& rng) const;

  /// Probability mass of key `rank`.
  [[nodiscard]] double pmf(std::size_t rank) const;

  [[nodiscard]] std::size_t size() const noexcept { return cdf_.size(); }

 private:
  std::vector<double> cdf_;  ///< Inclusive cumulative mass per rank.
};

}  // namespace cool::load
