// Copyright (c) 2026 libvcdn authors. Apache-2.0 license.
//
// Cafe Cache (Sec. 6): Chunk-Aware, Fill-Efficient video cache.
//
// For each request R over chunk set S (missing subset S', eviction victims
// S''), Cafe serves iff the expected cost of serving is below the expected
// cost of redirecting:
//
//   E[serve]    = |S'| C_F + sum_{x in S''} (T / IAT_x) min(C_F, C_R)   (Eq. 6)
//   E[redirect] = |S|  C_R + sum_{x in S'} (T / IAT_x) min(C_F, C_R)   (Eq. 7)
//
// Chunk popularity is a per-chunk EWMA inter-arrival time (Eq. 8):
//   dt_x <- gamma (t - t_x) + (1 - gamma) dt_x;  t_x <- t
//
// Cached chunks are kept ordered under the *virtual timestamp* of Theorem 1
// evaluated at the fixed reference T0 = 0:
//   key_x = gamma * t_x - (1 - gamma) * dt_x
// which orders chunks identically to IAT at any time (smaller key <=> larger
// IAT <=> less popular). Keys must all be computed at one common T0 -- the
// in-text form key_x(t) = t - IAT_x(t) drifts by (1-gamma)t and is only
// consistent per Theorem 1's fixed-T0 statement; see cafe_cache_test.cc for
// the property test.
//
// The lookahead window T is the cache age, measured as the IAT of the least
// popular cached chunk. Chunks never seen before inherit the largest IAT
// among their video's cached chunks (Sec. 6's final optimization); failing
// that they contribute no expected future cost.
//
// Every tracked chunk -- cached, or uncached with popularity history -- has
// one slot in a single chunk table: a slab of 40-byte slots (id, stat, heap
// position, recency links) under one FlatIndex<ChunkId>. A cached slot sits
// in a min-heap of inline (virtual key, handle) entries, ties broken by chunk
// id so victim order is deterministic; an uncached slot sits on an intrusive
// recency list (and, in proactive mode, in a max-heap of the same entries).
// Each requested chunk is probed once; eviction, fill-from-history and
// re-keying move a handle between these structures, and only history cleanup
// erases from the index. Steady-state admission performs no heap allocation.
// container_flat_differential_test pins the decisions with golden outcome
// digests (default, proactive and no-video-estimate options).

#ifndef VCDN_SRC_CORE_CAFE_CACHE_H_
#define VCDN_SRC_CORE_CAFE_CACHE_H_

#include <cstdint>
#include <string_view>
#include <utility>
#include <vector>

#include "src/container/chunk_set_map.h"
#include "src/container/flat_index.h"
#include "src/container/flat_lru_map.h"
#include "src/container/indexed_heap.h"
#include "src/core/cache_algorithm.h"

namespace vcdn::core {

struct CafeOptions {
  // EWMA smoothing factor gamma (Eq. 8); the paper uses 0.25 throughout.
  double gamma = 0.25;
  // History entries (tracked but uncached chunks) older than
  // retention_factor * cache_age / min(1, alpha) are garbage-collected,
  // mirroring xLRU's "historic data ... is regularly cleaned up".
  double history_retention_factor = 2.0;
  // Use the per-video largest-IAT estimate for never-seen chunks (the Sec. 6
  // optimization). Disabled in one ablation bench.
  bool estimate_unseen_from_video = true;

  // Proactive caching for spare ingress (Sec. 10 future work): during
  // off-peak hours ("such as proactive caching during early morning hours")
  // the cache prefetches the most popular *uncached* tracked chunks, as long
  // as they are more popular than the least popular cached chunk. Off-peak
  // is detected as the smoothed request rate dropping below
  // proactive_rate_threshold of the observed peak rate.
  bool proactive = false;
  double proactive_rate_threshold = 0.6;
  uint32_t proactive_fills_per_request = 2;
  // Smoothing for the request-rate estimate and decay of the peak tracker.
  double proactive_rate_smoothing = 0.02;
  // How much a spare (off-peak) ingress byte costs relative to C_F. The
  // point of Sec. 10's proactive caching is that night-time uplink capacity
  // is otherwise wasted, so its effective cost is below the C_F charged at
  // peak; a prefetch happens when its expected future savings exceed
  // C_F * this discount (1.0 = spare ingress is not actually cheaper).
  double proactive_cost_discount = 0.5;
};

class CafeCache : public CacheAlgorithm {
 public:
  explicit CafeCache(const CacheConfig& config, const CafeOptions& options = {});

  std::string_view name() const override { return "Cafe"; }
  uint64_t used_chunks() const override { return cached_.size(); }
  bool ContainsChunk(const ChunkId& chunk) const override {
    const uint32_t slot = FindSlot(chunk);
    return slot != kNil && IsCached(slot);
  }

  // IAT of the least popular cached chunk at `now` (the window T / cache
  // age); 0 when the cache is empty. Exposed for tests.
  double CacheAge(double now) const;

  // Estimated IAT of a chunk at `now`: from its own history if tracked,
  // otherwise from its video's cached chunks, otherwise +infinity.
  // Exposed for tests.
  double EstimateIat(const ChunkId& chunk, double now) const;

  size_t tracked_history_chunks() const { return history_size_; }

 protected:
  RequestOutcome HandleRequestImpl(const trace::Request& request) override;
  // Evicts least popular first; the victims' stats move to history, so a
  // cold restart loses the disk but keeps the popularity signal.
  uint64_t EvictDownTo(uint64_t max_chunks) override;
  void OnAttachMetrics(obs::MetricsRegistry& registry, const std::string& prefix) override;
  void OnOutcomeRecorded() override;

 private:
  static constexpr uint32_t kNil = UINT32_MAX;
  // Slot::prev of a cached slot (cached slots are on no recency list).
  static constexpr uint32_t kCachedMark = UINT32_MAX - 1;

  struct ChunkStat {
    double dt = 0.0;      // EWMA-smoothed inter-arrival time
    double t_last = 0.0;  // last access time
  };

  // One tracked chunk. The ChunkId is stored as its two fields so the heap
  // position fits in what would be ChunkId's padding.
  struct Slot {
    VideoId video = 0;
    uint32_t index = 0;
    // Position in cached_ while cached, in history_by_key_ while uncached
    // (proactive mode only).
    uint32_t heap_pos = kNil;
    ChunkStat stat;
    // History recency links while uncached; prev == kCachedMark while
    // cached. `next` doubles as the free-list link while the slot is free.
    uint32_t prev = kNil;
    uint32_t next = kNil;

    ChunkId id() const { return ChunkId{video, index}; }
  };
  static_assert(sizeof(Slot) <= 40, "a chunk-table slot must stay within 40 bytes");

  // The heaps' view of the slab: heap-position bookkeeping and chunk-id
  // tie-breaks.
  struct HeapSlots {
    std::vector<Slot>* slots;
    void SetPos(uint32_t slot, uint32_t pos) const { (*slots)[slot].heap_pos = pos; }
    bool IdLess(uint32_t a, uint32_t b) const { return (*slots)[a].id() < (*slots)[b].id(); }
  };
  HeapSlots Slots() { return HeapSlots{&slots_}; }

  struct KeyAtFn {
    const std::vector<Slot>* slots;
    ChunkId operator()(uint32_t slot) const { return (*slots)[slot].id(); }
  };

  double IatOf(const ChunkStat& stat, double now) const;
  // Theorem-1 virtual timestamp at T0 = 0.
  double VirtualKey(const ChunkStat& stat) const;
  void UpdateStat(ChunkStat& stat, double now) const;
  void CleanupHistory(double now);

  // Straight to the per-video largest cached IAT of Sec. 6, or +infinity.
  double EstimateIatFromVideo(VideoId video, double now) const;

  // Chunk table. FindSlot is the only probe by id; everything else moves
  // handles.
  uint32_t FindSlot(const ChunkId& chunk) const {
    return index_.Find(index_.HashOf(chunk), chunk, KeyAtFn{&slots_});
  }
  bool IsCached(uint32_t slot) const { return slots_[slot].prev == kCachedMark; }
  // Adds an untracked chunk to the table; the caller links it (history or
  // cache).
  uint32_t NewSlot(const ChunkId& chunk, const ChunkStat& stat);
  // Uncached slot -> front of the history recency list (proactive: also into
  // history_by_key_).
  void HistoryPush(uint32_t slot);
  // Takes an uncached slot off the history structures.
  void HistoryUnlink(uint32_t slot);
  // Uncached, unlinked slot -> cache.
  void CacheInsert(uint32_t slot);
  // Cached slot -> history (a cold restart keeps the popularity signal).
  void CacheEvict(uint32_t slot);
  // Off-peak prefetching; returns the number of chunks filled.
  uint32_t ProactiveFill(double now);

  CafeOptions options_;

  std::vector<Slot> slots_;
  container::FlatIndex<ChunkId, ChunkIdHash> index_;
  uint32_t free_ = kNil;
  // Cached slots by virtual key (Top() = least popular).
  container::IndexedHeap<double> cached_;
  // Uncached slots in recency order (head = most recent), for cleanup.
  uint32_t history_head_ = kNil;
  uint32_t history_tail_ = kNil;
  uint32_t history_size_ = 0;
  // Uncached slots by virtual key (Top() = most popular), the proactive-fill
  // candidate pool; maintained only when options_.proactive is set.
  container::IndexedHeap<double, /*kMaxFirst=*/true> history_by_key_;
  // Slot handles of each video's cached chunks (the unseen-chunk estimate).
  container::FlatChunkSetMap video_chunks_;
  // Videos ever seen (recency-ordered, cleaned with the history); a request
  // for a never-seen video is always redirected, as in xLRU.
  container::FlatLruMap<VideoId, double> video_seen_;
  double first_request_time_ = -1.0;

  // Request-rate tracking for off-peak detection.
  double last_arrival_ = -1.0;
  double rate_estimate_ = 0.0;
  double peak_rate_ = 0.0;

  // Reused across requests so the serve path does not allocate in steady
  // state: the requested chunks' slots (kNil when untracked) and the
  // eviction victims S'' as (slot, IAT at now).
  std::vector<uint32_t> request_slots_;
  std::vector<std::pair<uint32_t, double>> victims_scratch_;

  // Observability (no-ops until AttachMetrics): the admission-decision mix of
  // Eqs. (6)-(7) and the popularity-tracking queue depths.
  obs::Counter admit_serve_total_;
  obs::Counter admit_redirect_cost_total_;
  obs::Counter admit_redirect_unseen_total_;
  obs::Counter admit_redirect_too_wide_total_;
  obs::Counter proactive_fill_rounds_total_;
  obs::Gauge history_chunks_gauge_;
  obs::Gauge tracked_videos_gauge_;
  obs::Gauge cache_age_gauge_;
  obs::Gauge request_rate_gauge_;
};

}  // namespace vcdn::core

#endif  // VCDN_SRC_CORE_CAFE_CACHE_H_
