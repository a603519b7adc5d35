// Copyright (c) 2026 libvcdn authors. Apache-2.0 license.
//
// Differential tests for the flat hot-path containers: FlatLruMap,
// ScoreHeap and FlatChunkSetMap are driven side by side with node-based
// oracles (tests/lru_map_oracle.h, tests/ordered_key_set_oracle.h, a map of
// hash sets) through seeded mixed operations asserting identical observable
// state. xLRU and Cafe replay a seeded stream with interleaved
// Resize/DropContents, unbatched and batched, against golden outcome
// digests. Finally, the counting allocator (vcdn_alloc_hook, linked into this
// test) asserts the flat containers and the cache request paths perform zero
// heap allocations in steady state.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "src/container/chunk_set_map.h"
#include "src/container/flat_lru_map.h"
#include "src/container/score_heap.h"
#include "src/core/cafe_cache.h"
#include "src/core/chunk.h"
#include "src/core/xlru_cache.h"
#include "src/sim/decision_digest.h"
#include "src/util/alloc_hook.h"
#include "src/util/rng.h"
#include "tests/lru_map_oracle.h"
#include "tests/ordered_key_set_oracle.h"

namespace vcdn {
namespace {

// ---------------------------------------------------------------------------
// FlatLruMap vs oracle::LruMap

void ExpectLruStateEqual(const container::FlatLruMap<uint64_t, uint64_t>& flat,
                         const oracle::LruMap<uint64_t, uint64_t>& ref) {
  ASSERT_EQ(flat.size(), ref.size());
  auto fit = flat.begin();
  auto rit = ref.begin();
  for (; fit != flat.end(); ++fit, ++rit) {
    ASSERT_EQ(fit->key, rit->key);
    ASSERT_EQ(fit->value, rit->value);
  }
}

TEST(FlatDifferentialTest, LruMapMatchesReferenceThroughMixedOps) {
  container::FlatLruMap<uint64_t, uint64_t> flat;
  oracle::LruMap<uint64_t, uint64_t> ref;
  flat.Reserve(1 << 14);
  util::Pcg32 rng(20260805);
  constexpr size_t kOps = 1'000'000;
  constexpr uint64_t kKeyRange = 1 << 14;
  for (size_t i = 0; i < kOps; ++i) {
    uint64_t key = rng.Next64() % kKeyRange;
    uint32_t op = rng.NextBounded(100);
    if (op < 35) {
      uint64_t value = rng.Next64();
      ASSERT_EQ(flat.InsertOrTouch(key, value), ref.InsertOrTouch(key, value));
    } else if (op < 50) {
      // Default-construct overload: both sides get the same in-place write.
      uint64_t value = rng.Next64();
      *flat.InsertOrTouch(key) = value;
      *ref.InsertOrTouch(key) = value;
    } else if (op < 68) {
      uint64_t* a = flat.GetAndTouch(key);
      uint64_t* b = ref.GetAndTouch(key);
      ASSERT_EQ(a == nullptr, b == nullptr);
      if (a != nullptr) {
        ASSERT_EQ(*a, *b);
      }
    } else if (op < 78) {
      const uint64_t* a = flat.Peek(key);
      const uint64_t* b = ref.Peek(key);
      ASSERT_EQ(a == nullptr, b == nullptr);
      if (a != nullptr) {
        ASSERT_EQ(*a, *b);
      }
    } else if (op < 83) {
      uint64_t* a = flat.PeekMut(key);
      uint64_t* b = ref.PeekMut(key);
      ASSERT_EQ(a == nullptr, b == nullptr);
      if (a != nullptr) {
        uint64_t value = rng.Next64();
        *a = value;
        *b = value;
      }
    } else if (op < 88) {
      ASSERT_EQ(flat.Contains(key), ref.Contains(key));
    } else if (op < 95) {
      ASSERT_EQ(flat.Erase(key), ref.Erase(key));
    } else if (op < 99) {
      ASSERT_EQ(flat.empty(), ref.empty());
      if (!flat.empty()) {
        auto a = flat.PopOldest();
        auto b = ref.PopOldest();
        ASSERT_EQ(a.key, b.key);
        ASSERT_EQ(a.value, b.value);
      }
    } else if (rng.NextBounded(1000) == 0) {
      flat.Clear();
      ref.Clear();
    }
    if (!flat.empty()) {
      ASSERT_EQ(flat.Oldest().key, ref.Oldest().key);
      ASSERT_EQ(flat.Newest().key, ref.Newest().key);
    }
    if (i % 100'000 == 0) {
      ExpectLruStateEqual(flat, ref);
    }
  }
  ExpectLruStateEqual(flat, ref);
}

// ---------------------------------------------------------------------------
// ScoreHeap vs oracle::OrderedKeySet, both directions

using HeapItem = std::pair<double, uint64_t>;
using OrderedSet = oracle::OrderedKeySet<uint64_t, double>;

// The first `limit` items of `heap` in ScanInOrder order.
template <typename Heap>
std::vector<HeapItem> HeapPrefix(const Heap& heap, size_t limit) {
  std::vector<HeapItem> out;
  heap.ScanInOrder([&](const HeapItem& item) {
    out.push_back(item);
    return out.size() < limit;
  });
  return out;
}

// The first `limit` items of `set` in the order ScoreHeap<kMaxFirst> scans.
template <bool kMaxFirst>
std::vector<HeapItem> OraclePrefix(const OrderedSet& set, size_t limit) {
  std::vector<HeapItem> out;
  auto take = [&](auto it, auto end) {
    for (; it != end && out.size() < limit; ++it) {
      out.push_back(*it);
    }
  };
  if constexpr (kMaxFirst) {
    take(set.rbegin(), set.rend());
  } else {
    take(set.begin(), set.end());
  }
  return out;
}

template <bool kMaxFirst>
void RunScoreHeapDifferential(uint32_t seed) {
  constexpr size_t kAll = SIZE_MAX;
  container::ScoreHeap<uint64_t, double, std::hash<uint64_t>, kMaxFirst> flat;
  OrderedSet ref;
  flat.Reserve(1 << 12);
  util::Pcg32 rng(seed);
  constexpr size_t kOps = 400'000;
  constexpr uint64_t kIdRange = 1 << 12;
  for (size_t i = 0; i < kOps; ++i) {
    uint64_t id = rng.Next64() % kIdRange;
    // Coarse scores force frequent ties so the (score, id) tie-break is
    // exercised hard.
    double score = static_cast<double>(rng.NextBounded(256));
    uint32_t op = rng.NextBounded(100);
    if (op < 45) {
      ASSERT_EQ(flat.InsertOrUpdate(id, score), ref.InsertOrUpdate(id, score));
    } else if (op < 60) {
      ASSERT_EQ(flat.Erase(id), ref.Erase(id));
    } else if (op < 70) {
      const double* a = flat.GetScore(id);
      const double* b = ref.GetScore(id);
      ASSERT_EQ(a == nullptr, b == nullptr);
      if (a != nullptr) {
        ASSERT_EQ(*a, *b);
      }
    } else if (op < 75) {
      ASSERT_EQ(flat.Contains(id), ref.Contains(id));
    } else if (op < 85) {
      ASSERT_EQ(flat.empty(), ref.empty());
      if (!flat.empty()) {
        ASSERT_EQ(flat.Top(), kMaxFirst ? ref.Max() : ref.Min());
      }
    } else if (op < 97) {
      ASSERT_EQ(flat.empty(), ref.empty());
      if (!flat.empty()) {
        ASSERT_EQ(flat.PopTop(), kMaxFirst ? ref.PopMax() : ref.PopMin());
      }
    } else {
      // Victim-selection shape: the first 8 items in order must agree.
      ASSERT_EQ(HeapPrefix(flat, 8), OraclePrefix<kMaxFirst>(ref, 8));
    }
    if (i == kOps / 2) {
      flat.Clear();
      ref.Clear();
    }
    if (i % 50'000 == 0) {
      ASSERT_EQ(flat.size(), ref.size());
      ASSERT_EQ(HeapPrefix(flat, kAll), OraclePrefix<kMaxFirst>(ref, kAll));
    }
  }
  ASSERT_EQ(flat.size(), ref.size());
  ASSERT_EQ(HeapPrefix(flat, kAll), OraclePrefix<kMaxFirst>(ref, kAll));
}

TEST(FlatDifferentialTest, MinScoreHeapMatchesOrderedKeySet) {
  RunScoreHeapDifferential<false>(11);
}

TEST(FlatDifferentialTest, MaxScoreHeapMatchesOrderedKeySet) {
  RunScoreHeapDifferential<true>(12);
}

// ---------------------------------------------------------------------------
// FlatChunkSetMap vs a map of hash sets

std::vector<uint32_t> SortedChunks(const container::FlatChunkSetMap& flat, uint64_t video) {
  std::vector<uint32_t> chunks;
  flat.ForEach(video, [&](uint32_t c) { chunks.push_back(c); });
  std::sort(chunks.begin(), chunks.end());
  return chunks;
}

TEST(FlatDifferentialTest, ChunkSetMapMatchesNestedHashSets) {
  container::FlatChunkSetMap flat;
  std::unordered_map<uint64_t, std::unordered_set<uint32_t>> ref;
  auto ref_chunks = [&](uint64_t video) {
    auto it = ref.find(video);
    std::vector<uint32_t> chunks;
    if (it != ref.end()) {
      chunks.assign(it->second.begin(), it->second.end());
      std::sort(chunks.begin(), chunks.end());
    }
    return chunks;
  };
  util::Pcg32 rng(25);
  constexpr size_t kOps = 400'000;
  constexpr uint64_t kVideoRange = 512;
  // Few chunks per video, so videos empty out often and their entries are
  // dropped and recycled.
  constexpr uint32_t kChunkRange = 6;
  for (size_t i = 0; i < kOps; ++i) {
    const uint64_t video = rng.Next64() % kVideoRange;
    const uint32_t chunk = rng.NextBounded(kChunkRange);
    auto it = ref.find(video);
    const bool present = it != ref.end() && it->second.count(chunk) > 0;
    const uint32_t op = rng.NextBounded(100);
    // Insert and Erase have preconditions (absent / present), so each
    // mutates only when the oracle says it may.
    if (op < 40) {
      if (!present) {
        flat.Insert(video, chunk);
        ref[video].insert(chunk);
      }
    } else if (op < 70) {
      if (present) {
        flat.Erase(video, chunk);
        it->second.erase(chunk);
        if (it->second.empty()) {
          ref.erase(it);
        }
      }
    } else if (op < 80) {
      ASSERT_EQ(SortedChunks(flat, video), ref_chunks(video)) << "op " << i;
    } else if (op < 90) {
      ASSERT_EQ(flat.Contains(video, chunk), present) << "op " << i;
    } else {
      ASSERT_EQ(flat.ChunkCount(video), it == ref.end() ? 0 : it->second.size()) << "op " << i;
    }
    ASSERT_EQ(flat.video_count(), ref.size()) << "op " << i;
  }
  for (uint64_t video = 0; video < kVideoRange; ++video) {
    ASSERT_EQ(SortedChunks(flat, video), ref_chunks(video)) << "video " << video;
  }
}

// ---------------------------------------------------------------------------
// Cache-level golden digests

trace::Request SkewedRequest(util::Pcg32& rng, uint64_t videos, double time) {
  trace::Request r;
  r.video = std::min(rng.Next64() % videos, rng.Next64() % videos);
  uint64_t start_chunk = rng.NextBounded(16);
  uint64_t len_chunks = 1 + rng.NextBounded(8);
  r.byte_begin = start_chunk * core::kDefaultChunkBytes;
  r.byte_end = (start_chunk + len_chunks) * core::kDefaultChunkBytes - 1;
  r.arrival_time = time;
  return r;
}

core::CacheConfig DifferentialConfig() {
  core::CacheConfig config;
  config.chunk_bytes = core::kDefaultChunkBytes;
  config.disk_capacity_chunks = 4096;
  config.alpha_f2r = 2.0;
  return config;
}

struct GoldenRun {
  uint64_t digest = 0;
  uint64_t proactive_fills = 0;
};

// Replays the golden stream -- 60K seeded requests in four segments, with
// Resize(3/4), Resize(back) and DropContents between them -- and returns the
// sim::OutcomeDigest of every outcome plus one marker record per event
// (used_chunks() and the event's eviction count). batch_size 0 feeds
// HandleRequest; otherwise HandleRequestBatch windows of batch_size, cut at
// the events. Requests arrive every 0.05 s; with `alternating_spacing`,
// blocks of 1,000 requests alternate between 0.05 s and 1 s apart, so the
// request rate drops well below its peak and proactive Cafe prefetches.
GoldenRun GoldenReplay(core::CacheAlgorithm& cache, size_t batch_size,
                       bool alternating_spacing = false) {
  constexpr size_t kSegment = 15'000;
  util::Pcg32 rng(21);
  const uint64_t capacity = cache.config().disk_capacity_chunks;
  sim::OutcomeDigest digest;
  GoldenRun run;
  std::vector<trace::Request> window(std::max<size_t>(batch_size, 1));
  std::vector<core::RequestOutcome> outcomes(window.size());
  double t = 0.0;
  uint64_t sent = 0;
  auto fold_event = [&](uint64_t evicted) {
    digest.FoldFields(0xFF, 0xFF, cache.used_chunks(), 0, 0, static_cast<uint32_t>(evicted));
  };
  auto run_segment = [&] {
    for (size_t done = 0; done < kSegment;) {
      size_t n = std::min(window.size(), kSegment - done);
      for (size_t i = 0; i < n; ++i) {
        const bool slow = alternating_spacing && (sent++ / 1000) % 2 == 1;
        t += slow ? 1.0 : 0.05;
        window[i] = SkewedRequest(rng, 4000, t);
      }
      if (batch_size == 0) {
        outcomes[0] = cache.HandleRequest(window[0]);
      } else {
        cache.HandleRequestBatch(window.data(), n, outcomes.data());
      }
      for (size_t i = 0; i < n; ++i) {
        digest.Fold(outcomes[i]);
        run.proactive_fills += outcomes[i].proactive_filled_chunks;
      }
      done += n;
    }
  };
  run_segment();
  fold_event(cache.Resize(capacity * 3 / 4));
  run_segment();
  fold_event(cache.Resize(capacity));
  run_segment();
  fold_event(cache.DropContents());
  run_segment();
  fold_event(0);
  run.digest = digest.value();
  return run;
}

// Recorded when each algorithm ran on both the flat and the node-based
// containers; the two agreed, through both entry points.
constexpr uint64_t kXlruGoldenDigest = 0x3f18027fa0ff58ffULL;
constexpr uint64_t kCafeGoldenDigest = 0xd6061f97eb5c5285ULL;
// Recorded on the four-table Cafe (separate cached / cached-stats / history /
// history-by-key containers) before the single chunk table replaced it.
constexpr uint64_t kCafeProactiveGoldenDigest = 0xe3e6d1779d1d0721ULL;
constexpr uint64_t kCafeNoVideoEstimateGoldenDigest = 0x34df75d987b7ec74ULL;

TEST(GoldenDigestTest, XlruReplayMatchesGolden) {
  for (size_t batch_size : {size_t{0}, size_t{16}}) {
    core::XlruCache cache(DifferentialConfig());
    EXPECT_EQ(GoldenReplay(cache, batch_size).digest, kXlruGoldenDigest) << "batch " << batch_size;
  }
}

TEST(GoldenDigestTest, CafeReplayMatchesGolden) {
  for (size_t batch_size : {size_t{0}, size_t{16}}) {
    core::CafeCache cache(DifferentialConfig());
    EXPECT_EQ(GoldenReplay(cache, batch_size).digest, kCafeGoldenDigest) << "batch " << batch_size;
  }
}

TEST(GoldenDigestTest, ProactiveCafeReplayMatchesGolden) {
  core::CafeOptions options;
  options.proactive = true;
  for (size_t batch_size : {size_t{0}, size_t{16}}) {
    core::CafeCache cache(DifferentialConfig(), options);
    const GoldenRun run = GoldenReplay(cache, batch_size, /*alternating_spacing=*/true);
    EXPECT_GT(run.proactive_fills, 0u) << "batch " << batch_size;
    EXPECT_EQ(run.digest, kCafeProactiveGoldenDigest) << "batch " << batch_size;
  }
}

TEST(GoldenDigestTest, CafeWithoutVideoEstimateReplayMatchesGolden) {
  core::CafeOptions options;
  options.estimate_unseen_from_video = false;
  for (size_t batch_size : {size_t{0}, size_t{16}}) {
    core::CafeCache cache(DifferentialConfig(), options);
    EXPECT_EQ(GoldenReplay(cache, batch_size).digest, kCafeNoVideoEstimateGoldenDigest)
        << "batch " << batch_size;
  }
}

// ---------------------------------------------------------------------------
// Zero steady-state allocations (counting operator new from vcdn_alloc_hook)

TEST(FlatAllocationTest, HookIsLinked) {
  ASSERT_TRUE(util::AllocHookActive())
      << "this test must link vcdn_alloc_hook (see tests/CMakeLists.txt)";
  util::AllocScope scope;
  // Direct operator-new call: a plain new-expression may legally be elided.
  void* p = ::operator new(64);
  EXPECT_GE(scope.Delta().allocations, 1u);
  EXPECT_GE(scope.Delta().bytes, 64u);
  ::operator delete(p);
}

TEST(FlatAllocationTest, FlatLruMapSteadyStateIsAllocationFree) {
  container::FlatLruMap<uint64_t, uint64_t> map;
  map.Reserve(1 << 12);
  util::Pcg32 rng(31);
  constexpr uint64_t kKeyRange = 1 << 12;
  // Warm-up: populate to the working-set size.
  for (size_t i = 0; i < 50'000; ++i) {
    map.InsertOrTouch(rng.Next64() % kKeyRange, i);
    if (map.size() > (kKeyRange * 3) / 4) {
      map.PopOldest();
    }
  }
  util::AllocScope scope;
  for (size_t i = 0; i < 200'000; ++i) {
    uint64_t key = rng.Next64() % kKeyRange;
    map.InsertOrTouch(key, i);
    (void)map.GetAndTouch(rng.Next64() % kKeyRange);
    (void)map.Peek(rng.Next64() % kKeyRange);
    if (map.size() > (kKeyRange * 3) / 4) {
      map.PopOldest();
    }
    if (rng.NextBounded(8) == 0) {
      map.Erase(rng.Next64() % kKeyRange);
    }
  }
  EXPECT_EQ(scope.Delta().allocations, 0u);
}

TEST(FlatAllocationTest, ScoreHeapSteadyStateIsAllocationFree) {
  container::ScoreHeap<uint64_t, double> heap;
  heap.Reserve(1 << 12);
  util::Pcg32 rng(32);
  constexpr uint64_t kIdRange = 1 << 12;
  for (size_t i = 0; i < 50'000; ++i) {
    heap.InsertOrUpdate(rng.Next64() % kIdRange, rng.NextDouble());
    if (heap.size() > (kIdRange * 3) / 4) {
      heap.PopTop();
    }
  }
  // One full scan sizes the reusable scan scratch before measurement.
  size_t items = 0;
  heap.ScanInOrder([&](const auto&) {
    ++items;
    return true;
  });
  ASSERT_EQ(items, heap.size());
  util::AllocScope scope;
  for (size_t i = 0; i < 200'000; ++i) {
    heap.InsertOrUpdate(rng.Next64() % kIdRange, rng.NextDouble());
    if (heap.size() > (kIdRange * 3) / 4) {
      heap.PopTop();
    }
    if (rng.NextBounded(16) == 0) {
      size_t visited = 0;
      heap.ScanInOrder([&](const auto&) { return ++visited < 8; });
    }
    if (rng.NextBounded(8) == 0) {
      heap.Erase(rng.Next64() % kIdRange);
    }
  }
  EXPECT_EQ(scope.Delta().allocations, 0u);
}

TEST(FlatAllocationTest, XlruRequestPathSteadyStateIsAllocationFree) {
  core::CacheConfig config = DifferentialConfig();
  config.disk_capacity_chunks = 1 << 14;
  core::XlruCache cache(config);
  util::Pcg32 rng(33);
  double t = 0.0;
  // Warm-up: fill the disk and grow the request scratch to its peak.
  for (size_t i = 0; i < 200'000; ++i) {
    t += 0.01;
    cache.HandleRequest(SkewedRequest(rng, 8000, t));
  }
  util::AllocScope scope;
  for (size_t i = 0; i < 100'000; ++i) {
    t += 0.01;
    cache.HandleRequest(SkewedRequest(rng, 8000, t));
  }
  EXPECT_EQ(scope.Delta().allocations, 0u) << "xLRU steady state must not allocate per request";
}

TEST(FlatAllocationTest, CafeRequestPathSteadyStateIsAllocationFree) {
  // The flat Cafe request path -- chunk-table classification, EWMA updates,
  // history transitions, victim scans, the flattened video->chunks map and
  // periodic CleanupHistory -- must reach a fixed working set: after warm-up,
  // single-request admission performs zero heap allocations.
  core::CacheConfig config = DifferentialConfig();
  config.disk_capacity_chunks = 1 << 13;
  core::CafeCache cache(config);
  util::Pcg32 rng(34);
  double t = 0.0;
  // Warm-up: fill disk + history and grow every slab/scratch to its peak
  // (CleanupHistory bounds the history, so the footprint converges).
  for (size_t i = 0; i < 300'000; ++i) {
    t += 0.01;
    cache.HandleRequest(SkewedRequest(rng, 6000, t));
  }
  util::AllocScope scope;
  for (size_t i = 0; i < 100'000; ++i) {
    t += 0.01;
    cache.HandleRequest(SkewedRequest(rng, 6000, t));
  }
  EXPECT_EQ(scope.Delta().allocations, 0u) << "Cafe steady state must not allocate per request";
}

TEST(FlatAllocationTest, CafeBatchedRequestPathSteadyStateIsAllocationFree) {
  // Same contract through the batched entry point: the outcome buffer and
  // per-request scratch are all reused across calls.
  core::CacheConfig config = DifferentialConfig();
  config.disk_capacity_chunks = 1 << 13;
  core::CafeCache cache(config);
  util::Pcg32 rng(35);
  constexpr size_t kBatch = 16;
  std::vector<trace::Request> window(kBatch);
  std::vector<core::RequestOutcome> outcomes(kBatch);
  double t = 0.0;
  auto run = [&](size_t batches) {
    for (size_t b = 0; b < batches; ++b) {
      for (size_t i = 0; i < kBatch; ++i) {
        t += 0.01;
        window[i] = SkewedRequest(rng, 6000, t);
      }
      cache.HandleRequestBatch(window.data(), kBatch, outcomes.data());
    }
  };
  run(20'000);  // warm-up
  util::AllocScope scope;
  run(8'000);
  EXPECT_EQ(scope.Delta().allocations, 0u)
      << "batched Cafe steady state must not allocate per request";
}

}  // namespace
}  // namespace vcdn
