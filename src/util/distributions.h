// Copyright (c) 2026 libvcdn authors. Apache-2.0 license.
//
// Portable random distributions built on Pcg32. All are deterministic for a
// given generator state (the standard library's equivalents are not
// implementation-stable, which would break trace reproducibility).

#ifndef VCDN_SRC_UTIL_DISTRIBUTIONS_H_
#define VCDN_SRC_UTIL_DISTRIBUTIONS_H_

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "src/util/check.h"
#include "src/util/rng.h"

namespace vcdn::util {

// Exponential variate with the given mean (mean > 0). Inline: the workload
// generator draws one per arrival candidate.
inline double SampleExponential(Pcg32& rng, double mean) {
  VCDN_CHECK(mean > 0.0);
  // 1 - u in (0, 1] avoids log(0).
  double u = 1.0 - rng.NextDouble();
  return -mean * std::log(u);
}

// Standard normal variate (Box-Muller; one value per call, no caching so the
// draw count is deterministic).
double SampleStandardNormal(Pcg32& rng);

// Log-normal variate parameterized by the underlying normal's mu / sigma.
double SampleLogNormal(Pcg32& rng, double mu, double sigma);

// Pareto variate with scale x_m > 0 and shape alpha > 0: values >= x_m.
double SamplePareto(Pcg32& rng, double x_m, double alpha);

// Walker alias table (Vose's construction) for O(1) sampling from an
// arbitrary discrete distribution. Weights need not be normalized; they must
// be non-negative and have a positive sum.
class AliasTable {
 public:
  AliasTable() = default;
  explicit AliasTable(std::vector<double> weights) { Rebuild(std::move(weights)); }

  // Rebuilds the table over `weights`, adopting the buffer: the construction
  // runs in place and leaves the per-column acceptance probabilities there.
  // The result is the table a fresh AliasTable(weights) would hold.
  void Rebuild(std::vector<double> weights);

  // Returns an index in [0, size()). Consumes exactly the draws of
  // rng.NextBounded(size()) followed by rng.NextDouble().
  size_t Sample(Pcg32& rng) const {
    VCDN_DCHECK(columns_ > 0);
    // Lemire-style rejection to avoid modulo bias, as in NextBounded.
    uint32_t r = rng.Next();
    while (r < threshold_) {
      r = rng.Next();
    }
    const uint32_t column = r % columns_;
    return rng.NextDouble() < probability_[column] ? column : alias_[column];
  }

  size_t size() const { return probability_.size(); }

 private:
  std::vector<double> probability_;
  std::vector<uint32_t> alias_;
  uint32_t columns_ = 0;
  // (2^32 - columns_) mod columns_: draws below it are rejected.
  uint32_t threshold_ = 0;
};

}  // namespace vcdn::util

#endif  // VCDN_SRC_UTIL_DISTRIBUTIONS_H_
