// Copyright (c) 2026 libvcdn authors. Apache-2.0 license.

#include "src/util/distributions.h"

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "src/util/check.h"

namespace vcdn::util {

double SampleStandardNormal(Pcg32& rng) {
  // Box-Muller, cosine branch only so that exactly two uniforms are consumed
  // per call regardless of caller pattern.
  double u1 = 1.0 - rng.NextDouble();
  double u2 = rng.NextDouble();
  return std::sqrt(-2.0 * std::log(u1)) * std::cos(2.0 * M_PI * u2);
}

double SampleLogNormal(Pcg32& rng, double mu, double sigma) {
  VCDN_CHECK(sigma >= 0.0);
  return std::exp(mu + sigma * SampleStandardNormal(rng));
}

double SamplePareto(Pcg32& rng, double x_m, double alpha) {
  VCDN_CHECK(x_m > 0.0);
  VCDN_CHECK(alpha > 0.0);
  double u = 1.0 - rng.NextDouble();
  return x_m / std::pow(u, 1.0 / alpha);
}

// --- AliasTable -------------------------------------------------------------

void AliasTable::Rebuild(std::vector<double> weights) {
  VCDN_CHECK(!weights.empty());
  VCDN_CHECK(weights.size() <= UINT32_MAX);
  const size_t n = weights.size();
  double total = 0.0;
  for (double w : weights) {
    VCDN_CHECK(w >= 0.0);
    total += w;
  }
  VCDN_CHECK(total > 0.0);

  probability_ = std::move(weights);
  alias_.resize(n);
  columns_ = static_cast<uint32_t>(n);
  threshold_ = static_cast<uint32_t>(-columns_) % columns_;

  // Vose's construction on scaled weights (mean 1). Its two LIFO work stacks
  // share one array: indices below 1 grow up from the front, the rest down
  // from the back; together they never hold more than n indices.
  double* scaled = probability_.data();
  std::vector<uint32_t> work(n);
  size_t small = 0;  // work[0, small)
  size_t large = n;  // work[large, n)
  const double scale = static_cast<double>(n) / total;
  for (size_t i = 0; i < n; ++i) {
    scaled[i] *= scale;
    if (scaled[i] < 1.0) {
      work[small++] = static_cast<uint32_t>(i);
    } else {
      work[--large] = static_cast<uint32_t>(i);
    }
  }

  // Each small column is finished as soon as it is paired: its scaled weight
  // stays in place as its probability, and a large column tops it up.
  while (small > 0 && large < n) {
    const uint32_t s = work[--small];
    const uint32_t l = work[large++];
    alias_[s] = l;
    scaled[l] = (scaled[l] + scaled[s]) - 1.0;
    if (scaled[l] < 1.0) {
      work[small++] = l;
    } else {
      work[--large] = l;
    }
  }
  // Numerical leftovers all get probability 1.
  for (size_t k = 0; k < small; ++k) {
    scaled[work[k]] = 1.0;
    alias_[work[k]] = work[k];
  }
  for (size_t k = large; k < n; ++k) {
    scaled[work[k]] = 1.0;
    alias_[work[k]] = work[k];
  }
}

}  // namespace vcdn::util
