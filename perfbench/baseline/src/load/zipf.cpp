#include "load/zipf.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"

namespace cool::load {

ZipfSampler::ZipfSampler(std::size_t n, double theta) {
  COOL_CHECK(n > 0, "ZipfSampler needs at least one key");
  COOL_CHECK(theta >= 0.0, "Zipf theta must be non-negative");
  cdf_.resize(n);
  double total = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    total += 1.0 / std::pow(static_cast<double>(i + 1), theta);
    cdf_[i] = total;
  }
  for (double& c : cdf_) c /= total;
  cdf_.back() = 1.0;  // guard against rounding at the top
}

std::size_t ZipfSampler::sample(util::Rng& rng) const {
  const double u = rng.next_double();
  const auto it = std::upper_bound(cdf_.begin(), cdf_.end(), u);
  return static_cast<std::size_t>(
      std::min<std::ptrdiff_t>(it - cdf_.begin(),
                               static_cast<std::ptrdiff_t>(cdf_.size()) - 1));
}

double ZipfSampler::pmf(std::size_t rank) const {
  COOL_CHECK(rank < cdf_.size(), "Zipf pmf rank out of range");
  return rank == 0 ? cdf_[0] : cdf_[rank] - cdf_[rank - 1];
}

}  // namespace cool::load
