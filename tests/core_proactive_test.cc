// Copyright (c) 2026 libvcdn authors. Apache-2.0 license.
//
// Tests for Cafe's proactive caching mode (Sec. 10 "proactive caching for
// spare ingress"): off-peak prefetch of popular uncached chunks.

#include <gtest/gtest.h>

#include "src/core/cafe_cache.h"
#include "src/sim/replay.h"
#include "tests/cache_test_util.h"

namespace vcdn::core {
namespace {

using ::vcdn::testing::ChunkRequest;
using ::vcdn::testing::SmallConfig;

CafeOptions ProactiveOptions() {
  CafeOptions options;
  options.proactive = true;
  options.proactive_rate_threshold = 0.6;
  options.proactive_fills_per_request = 2;
  return options;
}

TEST(ProactiveCafeTest, DisabledByDefault) {
  CafeCache cache(SmallConfig(100, 2.0));
  cache.HandleRequest(ChunkRequest(1.0, 1, 0, 1));
  auto outcome = cache.HandleRequest(ChunkRequest(2.0, 1, 0, 1));
  EXPECT_EQ(outcome.proactive_filled_chunks, 0u);
}

TEST(ProactiveCafeTest, PrefetchesDuringOffPeak) {
  // alpha = 4: strict admission keeps the one-shot tail out of the cache but
  // in the popularity history -- exactly the spare-ingress opportunity the
  // proactive mode exploits off-peak.
  CafeOptions options = ProactiveOptions();
  // The synthetic hot set keeps the cache age artificially tiny (~0.1 s);
  // retain history long enough for candidates to survive to the off-peak
  // phase (real cache ages are hours, making the default factor fine).
  options.history_retention_factor = 1000.0;
  // Model night-time ingress as nearly free so the prefetch economics fire
  // even on this tiny synthetic workload.
  options.proactive_cost_discount = 0.05;
  CafeCache cache(SmallConfig(100, 4.0), options);
  // Peak phase: fast requests build up a peak-rate estimate; tail videos are
  // seen once each (redirected, tracked in history).
  double t = 0.0;
  for (int i = 0; i < 600; ++i) {
    t += 0.1;
    cache.HandleRequest(ChunkRequest(t, 1, 0, 1));
    if (i % 10 == 0) {
      cache.HandleRequest(ChunkRequest(t + 0.05, 50 + static_cast<trace::VideoId>(i / 10), 0, 3));
    }
  }
  // Off-peak phase: sparse requests. Rate collapses below threshold; the
  // disk has room, so popular history chunks should get prefetched.
  uint64_t proactive = 0;
  for (int i = 0; i < 200; ++i) {
    t += 30.0;
    auto outcome = cache.HandleRequest(ChunkRequest(t, 1, 0, 1));
    proactive += outcome.proactive_filled_chunks;
  }
  EXPECT_GT(proactive, 0u) << "off-peak prefetching never triggered";
}

TEST(ProactiveCafeTest, NoPrefetchAtPeakRate) {
  CafeCache cache(SmallConfig(100, 2.0), ProactiveOptions());
  // Constant-rate workload: the rate estimate equals the peak, which is
  // never below threshold * peak -> no proactive fills.
  double t = 0.0;
  uint64_t proactive = 0;
  for (trace::VideoId i = 0; i < 500; ++i) {
    t += 1.0;
    auto outcome =
        cache.HandleRequest(ChunkRequest(t, 1 + (i % 20), 0, 1));
    proactive += outcome.proactive_filled_chunks;
  }
  EXPECT_EQ(proactive, 0u);
}

TEST(ProactiveCafeTest, PrefetchRespectsCapacity) {
  CacheConfig config = SmallConfig(8, 2.0);
  CafeCache cache(config, ProactiveOptions());
  double t = 0.0;
  for (trace::VideoId i = 0; i < 300; ++i) {
    t += 0.1;
    cache.HandleRequest(ChunkRequest(t, 1 + (i % 6), 0, 1));
  }
  for (int i = 0; i < 100; ++i) {
    t += 50.0;
    cache.HandleRequest(ChunkRequest(t, 1, 0, 1));
    ASSERT_LE(cache.used_chunks(), config.disk_capacity_chunks);
  }
}

TEST(ProactiveCafeTest, ProactiveFillsCountedAsIngress) {
  CafeCache cache(SmallConfig(100, 2.0), ProactiveOptions());
  trace::Trace trace;
  double t = 0.0;
  for (int i = 0; i < 300; ++i) {
    t += 0.1;
    trace.requests.push_back(ChunkRequest(t, 1, 0, 1));
    if (i % 3 == 0) {
      trace.requests.push_back(ChunkRequest(t + 0.05, 9, 0, 3));
    }
  }
  for (int i = 0; i < 200; ++i) {
    t += 30.0;
    trace.requests.push_back(ChunkRequest(t, 1, 0, 1));
  }
  trace.duration = t + 1.0;
  sim::ReplayOptions options;
  options.measurement_start_fraction = 0.0;
  sim::ReplayResult result = sim::Replay(cache, trace, options);
  if (result.totals.proactive_filled_chunks > 0) {
    // filled_chunks must include the proactive ones.
    EXPECT_GE(result.totals.filled_chunks, result.totals.proactive_filled_chunks);
  }
}

}  // namespace
}  // namespace vcdn::core
