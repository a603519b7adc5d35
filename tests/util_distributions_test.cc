// Copyright (c) 2026 libvcdn authors. Apache-2.0 license.

#include "src/util/distributions.h"

#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <vector>

#include "src/util/rng.h"

namespace vcdn::util {
namespace {

TEST(ExponentialTest, MeanMatches) {
  Pcg32 rng(1);
  double sum = 0.0;
  constexpr int kSamples = 200000;
  for (int i = 0; i < kSamples; ++i) {
    double v = SampleExponential(rng, 5.0);
    ASSERT_GE(v, 0.0);
    sum += v;
  }
  EXPECT_NEAR(sum / kSamples, 5.0, 0.1);
}

TEST(NormalTest, MeanAndVariance) {
  Pcg32 rng(2);
  double sum = 0.0;
  double sq = 0.0;
  constexpr int kSamples = 200000;
  for (int i = 0; i < kSamples; ++i) {
    double v = SampleStandardNormal(rng);
    sum += v;
    sq += v * v;
  }
  EXPECT_NEAR(sum / kSamples, 0.0, 0.02);
  EXPECT_NEAR(sq / kSamples, 1.0, 0.02);
}

TEST(LogNormalTest, MedianIsExpMu) {
  Pcg32 rng(3);
  std::vector<double> samples;
  constexpr int kSamples = 50001;
  samples.reserve(kSamples);
  for (int i = 0; i < kSamples; ++i) {
    double v = SampleLogNormal(rng, 2.0, 0.5);
    ASSERT_GT(v, 0.0);
    samples.push_back(v);
  }
  std::nth_element(samples.begin(), samples.begin() + kSamples / 2, samples.end());
  EXPECT_NEAR(samples[kSamples / 2], std::exp(2.0), 0.2);
}

TEST(ParetoTest, SupportAndMedian) {
  Pcg32 rng(4);
  std::vector<double> samples;
  constexpr int kSamples = 50001;
  for (int i = 0; i < kSamples; ++i) {
    double v = SamplePareto(rng, 2.0, 1.5);
    ASSERT_GE(v, 2.0);
    samples.push_back(v);
  }
  std::nth_element(samples.begin(), samples.begin() + kSamples / 2, samples.end());
  // Median of Pareto(x_m, a) = x_m * 2^(1/a).
  EXPECT_NEAR(samples[kSamples / 2], 2.0 * std::pow(2.0, 1.0 / 1.5), 0.1);
}

TEST(AliasTableTest, MatchesWeights) {
  Pcg32 rng(5);
  std::vector<double> weights = {1.0, 2.0, 3.0, 4.0};
  AliasTable table(weights);
  constexpr int kSamples = 200000;
  std::vector<int> counts(weights.size(), 0);
  for (int i = 0; i < kSamples; ++i) {
    size_t idx = table.Sample(rng);
    ASSERT_LT(idx, weights.size());
    ++counts[idx];
  }
  for (size_t i = 0; i < weights.size(); ++i) {
    double expected = weights[i] / 10.0;
    EXPECT_NEAR(static_cast<double>(counts[i]) / kSamples, expected, 0.01);
  }
}

TEST(AliasTableTest, ZeroWeightNeverSampled) {
  Pcg32 rng(6);
  AliasTable table({0.0, 1.0, 0.0, 1.0});
  for (int i = 0; i < 10000; ++i) {
    size_t idx = table.Sample(rng);
    EXPECT_TRUE(idx == 1 || idx == 3);
  }
}

TEST(AliasTableTest, SingleEntry) {
  Pcg32 rng(7);
  AliasTable table({3.5});
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(table.Sample(rng), 0u);
  }
}

TEST(AliasTableTest, HeavyTailedWeights) {
  Pcg32 rng(8);
  std::vector<double> weights(1000, 0.001);
  weights[0] = 1000.0;
  AliasTable table(weights);
  int head = 0;
  constexpr int kSamples = 100000;
  for (int i = 0; i < kSamples; ++i) {
    if (table.Sample(rng) == 0) {
      ++head;
    }
  }
  double expected = 1000.0 / (1000.0 + 0.999);
  EXPECT_NEAR(static_cast<double>(head) / kSamples, expected, 0.005);
}

// Pareto weights of a given count, as the workload generator draws them.
std::vector<double> ParetoWeights(size_t n, uint64_t seed) {
  Pcg32 rng(seed);
  std::vector<double> weights(n);
  for (double& w : weights) {
    w = SamplePareto(rng, 1.0, 1.05);
  }
  return weights;
}

TEST(AliasTableTest, RebuildMatchesAFreshTable) {
  // One table rebuilt over growing and shrinking weight vectors draws
  // exactly what a freshly built table draws, and leaves the generator in
  // the same state.
  AliasTable reused;
  for (size_t n : {1u, 7u, 1000u, 3u, 50000u, 2u, 4096u, 1u, 777u}) {
    SCOPED_TRACE(n);
    const std::vector<double> weights = ParetoWeights(n, n);
    reused.Rebuild(weights);
    const AliasTable fresh(weights);
    ASSERT_EQ(reused.size(), n);
    Pcg32 a(11, n);
    Pcg32 b(11, n);
    for (int i = 0; i < 2000; ++i) {
      ASSERT_EQ(reused.Sample(a), fresh.Sample(b));
    }
    EXPECT_EQ(a.Next64(), b.Next64());
  }
}

TEST(AliasTableTest, SampleDrawsABoundedColumnThenADouble) {
  // Sample consumes exactly NextBounded(size()) followed by NextDouble(),
  // including the draws NextBounded rejects to avoid modulo bias. For 99876
  // columns the rejection threshold (2^32 mod 99876 = 99544) is hit about
  // once per 43K draws; `shadow` counts the rejections to prove they occur.
  for (size_t n : {1u, 3u, 10u, 99876u}) {
    SCOPED_TRACE(n);
    const AliasTable table(ParetoWeights(n, 5));
    const auto columns = static_cast<uint32_t>(n);
    const uint32_t threshold = static_cast<uint32_t>(-columns) % columns;
    Pcg32 sampled(21, n);
    Pcg32 reference(21, n);
    Pcg32 shadow(21, n);
    int rejected = 0;
    for (int i = 0; i < 200000; ++i) {
      ASSERT_LT(table.Sample(sampled), n);
      (void)reference.NextBounded(columns);
      (void)reference.NextDouble();
      while (shadow.Next() < threshold) {
        ++rejected;
      }
      (void)shadow.NextDouble();
    }
    const uint64_t next = sampled.Next64();
    EXPECT_EQ(next, reference.Next64());
    EXPECT_EQ(next, shadow.Next64());
    if (n == 99876u) {
      EXPECT_GT(rejected, 0);
    }
  }
}

}  // namespace
}  // namespace vcdn::util
