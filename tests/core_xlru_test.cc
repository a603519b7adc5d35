// Copyright (c) 2026 libvcdn authors. Apache-2.0 license.

#include "src/core/xlru_cache.h"

#include <gtest/gtest.h>

#include "tests/cache_test_util.h"

namespace vcdn::core {
namespace {

using ::vcdn::testing::ChunkRequest;
using ::vcdn::testing::SmallConfig;

TEST(XlruTest, FirstRequestForVideoIsRedirected) {
  XlruCache cache(SmallConfig(100));
  auto outcome = cache.HandleRequest(ChunkRequest(1.0, 7, 0, 3));
  EXPECT_EQ(outcome.decision, Decision::kRedirect);
  EXPECT_EQ(outcome.filled_chunks, 0u);
  EXPECT_EQ(cache.used_chunks(), 0u);
}

TEST(XlruTest, SecondRequestIsServedAndFilled) {
  XlruCache cache(SmallConfig(100));
  cache.HandleRequest(ChunkRequest(1.0, 7, 0, 3));
  auto outcome = cache.HandleRequest(ChunkRequest(2.0, 7, 0, 3));
  EXPECT_EQ(outcome.decision, Decision::kServe);
  EXPECT_EQ(outcome.filled_chunks, 4u);
  EXPECT_EQ(outcome.hit_chunks, 0u);
  EXPECT_EQ(cache.used_chunks(), 4u);
  EXPECT_TRUE(cache.ContainsChunk(ChunkId{7, 0}));
  EXPECT_TRUE(cache.ContainsChunk(ChunkId{7, 3}));
  EXPECT_FALSE(cache.ContainsChunk(ChunkId{7, 4}));
}

TEST(XlruTest, ThirdRequestIsAllHits) {
  XlruCache cache(SmallConfig(100));
  cache.HandleRequest(ChunkRequest(1.0, 7, 0, 3));
  cache.HandleRequest(ChunkRequest(2.0, 7, 0, 3));
  auto outcome = cache.HandleRequest(ChunkRequest(3.0, 7, 0, 3));
  EXPECT_EQ(outcome.decision, Decision::kServe);
  EXPECT_EQ(outcome.hit_chunks, 4u);
  EXPECT_EQ(outcome.filled_chunks, 0u);
}

TEST(XlruTest, PartialOverlapFillsOnlyMissing) {
  XlruCache cache(SmallConfig(100));
  cache.HandleRequest(ChunkRequest(1.0, 7, 0, 3));
  cache.HandleRequest(ChunkRequest(2.0, 7, 0, 3));
  auto outcome = cache.HandleRequest(ChunkRequest(3.0, 7, 2, 5));
  EXPECT_EQ(outcome.decision, Decision::kServe);
  EXPECT_EQ(outcome.hit_chunks, 2u);    // chunks 2, 3
  EXPECT_EQ(outcome.filled_chunks, 2u);  // chunks 4, 5
}

TEST(XlruTest, CacheAgeGrowsFromOldestChunk) {
  XlruCache cache(SmallConfig(100));
  EXPECT_DOUBLE_EQ(cache.CacheAge(5.0), 0.0);
  cache.HandleRequest(ChunkRequest(1.0, 7, 0, 0));
  cache.HandleRequest(ChunkRequest(2.0, 7, 0, 0));  // fills at t=2
  EXPECT_DOUBLE_EQ(cache.CacheAge(10.0), 8.0);
}

TEST(XlruTest, Eq5RedirectsUnpopularVideoOnceDiskFull) {
  // Capacity 4; fill it with video 1, then make video 1 hot so the cache age
  // stays small relative to a rarely requested video 2.
  CacheConfig config = SmallConfig(4, /*alpha=*/1.0);
  XlruCache cache(config);
  cache.HandleRequest(ChunkRequest(1.0, 1, 0, 3));
  cache.HandleRequest(ChunkRequest(2.0, 1, 0, 3));  // fills 4 chunks; disk full
  // Keep video 1 hot: cache age stays ~ now - 2. Video 2 seen at t=3.
  cache.HandleRequest(ChunkRequest(3.0, 2, 0, 0));  // first-seen -> redirect
  for (double t = 4.0; t < 40.0; t += 1.0) {
    auto outcome = cache.HandleRequest(ChunkRequest(t, 1, 0, 3));
    ASSERT_EQ(outcome.decision, Decision::kServe);
  }
  // Chunks of video 1 were touched at t=39, oldest at t=39 too (all touched).
  // Cache age at t=40 is 1.0; video 2's IAT is 37 > 1 -> redirect.
  auto outcome = cache.HandleRequest(ChunkRequest(40.0, 2, 0, 0));
  EXPECT_EQ(outcome.decision, Decision::kRedirect);
}

TEST(XlruTest, AlphaScalesAdmissionStrictness) {
  // Under alpha = 2 a video must be requested at a period at most half the
  // cache age; construct a video right at the boundary.
  CacheConfig strict = SmallConfig(8, /*alpha=*/2.0);
  CacheConfig lenient = SmallConfig(8, /*alpha=*/1.0);
  for (auto* config : {&strict, &lenient}) {
    XlruCache cache(*config);
    // Fill disk with video 1 (period 10).
    cache.HandleRequest(ChunkRequest(0.0, 1, 0, 7));
    cache.HandleRequest(ChunkRequest(10.0, 1, 0, 7));  // fills 8; disk full
    // Video 2 with IAT 6: seen at 14, requested again at 20.
    cache.HandleRequest(ChunkRequest(14.0, 2, 0, 0));
    // Cache age at t=20 is 20 - 10 = 10. IAT of video 2 = 6.
    //   alpha=1: 6 * 1 <= 10 -> serve.  alpha=2: 6 * 2 > 10 -> redirect.
    auto outcome = cache.HandleRequest(ChunkRequest(20.0, 2, 0, 0));
    if (config == &strict) {
      EXPECT_EQ(outcome.decision, Decision::kRedirect);
    } else {
      EXPECT_EQ(outcome.decision, Decision::kServe);
    }
  }
}

TEST(XlruTest, EvictsLeastRecentlyUsedChunks) {
  XlruCache cache(SmallConfig(4));
  cache.HandleRequest(ChunkRequest(1.0, 1, 0, 1));
  cache.HandleRequest(ChunkRequest(2.0, 1, 0, 1));  // fills chunks 1:0, 1:1
  cache.HandleRequest(ChunkRequest(3.0, 2, 0, 1));
  cache.HandleRequest(ChunkRequest(4.0, 2, 0, 1));  // fills 2:0, 2:1; disk full
  // Video 1 again -> hits, making video 2's chunks the LRU ones.
  cache.HandleRequest(ChunkRequest(5.0, 1, 0, 1));
  // A new fill for video 3 must evict video 2's chunks.
  cache.HandleRequest(ChunkRequest(6.0, 3, 0, 1));
  auto outcome = cache.HandleRequest(ChunkRequest(7.0, 3, 0, 1));
  EXPECT_EQ(outcome.decision, Decision::kServe);
  EXPECT_EQ(outcome.filled_chunks, 2u);
  EXPECT_EQ(outcome.evicted_chunks, 2u);
  EXPECT_FALSE(cache.ContainsChunk(ChunkId{2, 0}));
  EXPECT_FALSE(cache.ContainsChunk(ChunkId{2, 1}));
  EXPECT_TRUE(cache.ContainsChunk(ChunkId{1, 0}));
}

TEST(XlruTest, NeverEvictsChunksOfCurrentRequest) {
  XlruCache cache(SmallConfig(4));
  cache.HandleRequest(ChunkRequest(1.0, 1, 0, 1));
  cache.HandleRequest(ChunkRequest(2.0, 1, 0, 1));
  // Request spanning 4 chunks of video 1: hits 0-1 + fills 2-3.
  auto outcome = cache.HandleRequest(ChunkRequest(3.0, 1, 0, 3));
  EXPECT_EQ(outcome.decision, Decision::kServe);
  EXPECT_EQ(outcome.hit_chunks, 2u);
  EXPECT_EQ(outcome.filled_chunks, 2u);
  EXPECT_EQ(outcome.evicted_chunks, 0u);
  // All four present.
  for (uint32_t c = 0; c < 4; ++c) {
    EXPECT_TRUE(cache.ContainsChunk(ChunkId{1, c}));
  }
}

TEST(XlruTest, RangeWiderThanDiskIsRedirected) {
  XlruCache cache(SmallConfig(4));
  cache.HandleRequest(ChunkRequest(1.0, 1, 0, 7));
  auto outcome = cache.HandleRequest(ChunkRequest(2.0, 1, 0, 7));  // 8 chunks > 4
  EXPECT_EQ(outcome.decision, Decision::kRedirect);
  EXPECT_EQ(cache.used_chunks(), 0u);
}

TEST(XlruTest, DiskNeverExceedsCapacity) {
  XlruCache cache(SmallConfig(16));
  double t = 0.0;
  for (int round = 0; round < 50; ++round) {
    for (trace::VideoId v = 1; v <= 10; ++v) {
      t += 1.0;
      cache.HandleRequest(ChunkRequest(t, v, 0, 3));
      ASSERT_LE(cache.used_chunks(), 16u);
    }
  }
  EXPECT_EQ(cache.used_chunks(), 16u);
}

TEST(XlruTest, TrackerCleanupDropsStaleVideos) {
  XlruCache cache(SmallConfig(4, /*alpha=*/1.0));
  // Touch many one-shot videos, then advance time with a hot video.
  for (trace::VideoId v = 100; v < 200; ++v) {
    cache.HandleRequest(ChunkRequest(static_cast<double>(v - 99), v, 0, 0));
  }
  cache.HandleRequest(ChunkRequest(101.0, 1, 0, 3));
  cache.HandleRequest(ChunkRequest(102.0, 1, 0, 3));  // fill
  for (double t = 103.0; t < 300.0; t += 1.0) {
    cache.HandleRequest(ChunkRequest(t, 1, 0, 3));
  }
  // Cache age is ~1s; videos idle for >> age must have been purged.
  EXPECT_LT(cache.tracked_videos(), 10u);
}

// Property: replaying any prefix twice from a fresh cache yields identical
// decisions (the algorithm is deterministic).
TEST(XlruTest, DeterministicReplay) {
  auto run = [](std::vector<Decision>& decisions) {
    XlruCache cache(SmallConfig(8, 2.0));
    for (uint32_t i = 0; i < 200; ++i) {
      double t = static_cast<double>(i);
      trace::VideoId v = static_cast<trace::VideoId>(i % 7);
      auto outcome = cache.HandleRequest(ChunkRequest(t, v, 0, (i % 3)));
      decisions.push_back(outcome.decision);
    }
  };
  std::vector<Decision> a;
  std::vector<Decision> b;
  run(a);
  run(b);
  EXPECT_EQ(a, b);
}

}  // namespace
}  // namespace vcdn::core
