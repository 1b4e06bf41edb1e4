#include "netsim/rng.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <stdexcept>

namespace ecsdns::netsim {

double Rng::exponential(double mean) {
  // Inverse-CDF; guard against log(0).
  double u = uniform_double();
  if (u <= 0.0) u = 0x1.0p-53;
  return -mean * std::log(1.0 - u);
}

ZipfSampler::ZipfSampler(std::size_t n, double s) {
  if (n == 0) throw std::invalid_argument("ZipfSampler requires n > 0");
  if (n > std::numeric_limits<std::uint32_t>::max()) {
    throw std::invalid_argument("ZipfSampler supports at most 2^32 - 1 ranks");
  }
  cdf_.resize(n);
  double total = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    total += 1.0 / std::pow(static_cast<double>(i + 1), s);
    cdf_[i] = total;
  }
  for (auto& v : cdf_) v /= total;
  // Both k/n and the first rank reaching it only rise with k, so one
  // two-pointer pass fills the table.
  guide_.resize(n);
  std::size_t rank = 0;
  for (std::size_t k = 0; k < n; ++k) {
    const double threshold = static_cast<double>(k) / static_cast<double>(n);
    while (rank + 1 < n && cdf_[rank] < threshold) ++rank;
    guide_[k] = static_cast<std::uint32_t>(rank);
  }
}

std::size_t ZipfSampler::sample(Rng& rng) const {
  const double u = rng.uniform_double();
  const std::size_t n = cdf_.size();
  const auto k = std::min(static_cast<std::size_t>(u * static_cast<double>(n)), n - 1);
  std::size_t rank = guide_[k];
  // guide_[k] is the first rank whose CDF reaches k/n <= u, so the answer
  // is at or after it — unless rounding in u*n picked a k just past u;
  // then step back first.
  while (rank > 0 && cdf_[rank - 1] >= u) --rank;
  while (rank + 1 < n && cdf_[rank] < u) ++rank;
  return rank;
}

}  // namespace ecsdns::netsim
