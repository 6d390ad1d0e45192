#include "loadgen/popularity.h"

#include <algorithm>
#include <bit>
#include <cmath>

namespace lnic::loadgen {

ZipfSelector::ZipfSelector(std::size_t n, double s, std::uint64_t seed)
    : rng_(seed) {
  if (n == 0) n = 1;
  cdf_.reserve(n);
  double total = 0.0;
  for (std::size_t rank = 0; rank < n; ++rank) {
    total += 1.0 / std::pow(static_cast<double>(rank + 1), s);
    cdf_.push_back(total);
  }
  // Normalize, and in the same pass fill guide_[j] = lower_bound(j /
  // buckets): the first rank whose (non-decreasing) CDF value reaches it.
  const std::size_t buckets = std::min(kMaxBuckets, std::bit_ceil(n));
  guide_.resize(buckets + 1);
  std::size_t j = 0;
  for (std::size_t rank = 0; rank < n; ++rank) {
    // The last value is exactly 1, guarding against rounding in searches.
    const double c = rank + 1 == n ? 1.0 : cdf_[rank] / total;
    cdf_[rank] = c;
    while (j <= buckets &&
           static_cast<double>(j) / static_cast<double>(buckets) <= c) {
      guide_[j++] = static_cast<std::uint32_t>(rank);
    }
  }
}

std::size_t ZipfSelector::rank_of(double u) const {
  const std::size_t buckets = guide_.size() - 1;
  if (!(u >= 0.0 && u < 1.0)) {
    // Outside the table (or NaN): search the whole CDF.
    return static_cast<std::size_t>(
        std::lower_bound(cdf_.begin(), cdf_.end(), u) - cdf_.begin());
  }
  const auto j = static_cast<std::size_t>(u * static_cast<double>(buckets));
  // lower_bound is monotone in u, so the answer lies in
  // [guide_[j], guide_[j + 1]]; when every CDF value in the half-open
  // range is < u, the search returns its end, guide_[j + 1].
  return static_cast<std::size_t>(
      std::lower_bound(cdf_.begin() + guide_[j], cdf_.begin() + guide_[j + 1],
                       u) -
      cdf_.begin());
}

double ZipfSelector::expected_fraction(std::size_t rank) const {
  if (rank >= cdf_.size()) return 0.0;
  const double below = rank == 0 ? 0.0 : cdf_[rank - 1];
  return cdf_[rank] - below;
}

Bytes PayloadDist::sample(Rng& rng) const {
  switch (kind) {
    case Kind::kFixed:
      return fixed;
    case Kind::kUniform: {
      const Bytes lo = std::min(min, max), hi = std::max(min, max);
      return lo + rng.next_below(hi - lo + 1);
    }
    case Kind::kBimodal:
      return rng.next_bool(large_prob) ? large : fixed;
  }
  return fixed;
}

double PayloadDist::mean() const {
  switch (kind) {
    case Kind::kFixed:
      return static_cast<double>(fixed);
    case Kind::kUniform:
      return (static_cast<double>(min) + static_cast<double>(max)) / 2.0;
    case Kind::kBimodal:
      return static_cast<double>(fixed) * (1.0 - large_prob) +
             static_cast<double>(large) * large_prob;
  }
  return static_cast<double>(fixed);
}

}  // namespace lnic::loadgen
