// Function-popularity and payload-size models. Production serverless
// traffic is heavily skewed: a few hot functions take most of the
// requests (SuperNIC, arXiv:2109.07744, drives multi-tenant SmartNICs
// with exactly this shape). ZipfSelector picks a function rank with
// P(rank r) ∝ 1/r^s — s = 0 degenerates to uniform — and PayloadDist
// draws per-request payload sizes (fixed / uniform / bimodal), both from
// seeded common/rng.h streams.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "common/types.h"

namespace lnic::loadgen {

/// Zipfian rank selector over n items (ranks 0..n-1, rank 0 hottest).
class ZipfSelector {
 public:
  /// `s` is the skew exponent (0 = uniform, 0.9-1.1 = web-like).
  ZipfSelector(std::size_t n, double s, std::uint64_t seed);

  /// rank_of() of the next uniform draw in [0, 1).
  std::size_t sample() { return rank_of(rng_.next_double()); }
  /// Inverse CDF: the first rank whose cumulative mass is >= u, exactly
  /// what std::lower_bound over the CDF returns.
  std::size_t rank_of(double u) const;
  std::size_t size() const { return cdf_.size(); }
  /// The exact probability mass of `rank` under this distribution.
  double expected_fraction(std::size_t rank) const;

 private:
  /// Guide-table buckets: a power of two, so u * buckets and j / buckets
  /// are exact and bucket j holds exactly the u in [j, j+1) / buckets.
  static constexpr std::size_t kMaxBuckets = 4096;

  std::vector<double> cdf_;  // cumulative, cdf_.back() == 1
  /// guide_[j] = rank_of(j / buckets): every u in bucket j maps to a rank
  /// in [guide_[j], guide_[j + 1]], so one short search finishes it.
  std::vector<std::uint32_t> guide_;
  Rng rng_;
};

/// Per-function request payload sizes.
struct PayloadDist {
  enum class Kind : std::uint8_t { kFixed, kUniform, kBimodal };

  Kind kind = Kind::kFixed;
  Bytes fixed = 64;             // kFixed value; small mode of kBimodal
  Bytes min = 64, max = 64;     // kUniform inclusive range
  Bytes large = 4096;           // large mode of kBimodal
  double large_prob = 0.0;      // probability of the large mode

  static PayloadDist fixed_size(Bytes size) {
    PayloadDist d;
    d.kind = Kind::kFixed;
    d.fixed = size;
    return d;
  }
  static PayloadDist uniform(Bytes min, Bytes max) {
    PayloadDist d;
    d.kind = Kind::kUniform;
    d.min = min;
    d.max = max;
    return d;
  }
  static PayloadDist bimodal(Bytes small, Bytes large, double large_prob) {
    PayloadDist d;
    d.kind = Kind::kBimodal;
    d.fixed = small;
    d.large = large;
    d.large_prob = large_prob;
    return d;
  }

  Bytes sample(Rng& rng) const;
  double mean() const;
};

}  // namespace lnic::loadgen
