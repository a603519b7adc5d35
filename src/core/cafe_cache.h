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
// Chunks are ordered in flat ScoreHeaps (ties broken by chunk id, so victim
// order is deterministic) and their stats kept in slab-backed FlatLruMaps;
// steady-state admission performs no heap allocation.
// container_flat_differential_test pins the decisions with a golden outcome
// digest.

#ifndef VCDN_SRC_CORE_CAFE_CACHE_H_
#define VCDN_SRC_CORE_CAFE_CACHE_H_

#include <cstdint>
#include <string_view>
#include <utility>
#include <vector>

#include "src/container/chunk_set_map.h"
#include "src/container/flat_lru_map.h"
#include "src/container/score_heap.h"
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
  bool ContainsChunk(const ChunkId& chunk) const override { return cached_.Contains(chunk); }

  // IAT of the least popular cached chunk at `now` (the window T / cache
  // age); 0 when the cache is empty. Exposed for tests.
  double CacheAge(double now) const;

  // Estimated IAT of a chunk at `now`: from its own history if tracked,
  // otherwise from its video's cached chunks, otherwise +infinity.
  // Exposed for tests.
  double EstimateIat(const ChunkId& chunk, double now) const;

  size_t tracked_history_chunks() const { return history_.size(); }

 protected:
  RequestOutcome HandleRequestImpl(const trace::Request& request) override;
  // Evicts least popular first; the victims' stats move to history, so a
  // cold restart loses the disk but keeps the popularity signal.
  uint64_t EvictDownTo(uint64_t max_chunks) override;
  void OnAttachMetrics(obs::MetricsRegistry& registry, const std::string& prefix) override;
  void OnOutcomeRecorded() override;

 private:
  struct ChunkStat {
    double dt = 0.0;      // EWMA-smoothed inter-arrival time
    double t_last = 0.0;  // last access time
  };

  // Pre-hashed probe targets of one request. Every ChunkId-keyed flat
  // structure (cached_, cached_stats_, history_, history_by_key_) and both
  // VideoId-keyed ones (video_seen_, video_chunks_) share their respective
  // mixed hash, so one pass covers all probes of the request.
  struct RequestHashes {
    uint32_t video_hash = 0;
    std::vector<uint32_t> chunk_hashes;  // one per chunk of the range
  };

  double IatOf(const ChunkStat& stat, double now) const;
  // Theorem-1 virtual timestamp at T0 = 0.
  double VirtualKey(const ChunkStat& stat) const;
  void UpdateStat(ChunkStat& stat, double now) const;
  void CleanupHistory(double now);

  void ComputeHashes(const trace::Request& request, RequestHashes& out) const;

  // EstimateIat split for call sites that already know probe outcomes:
  // `chunk` known uncached (skips the cached_stats_ probe) ...
  double EstimateIatUncached(const ChunkId& chunk, uint32_t chunk_hash, uint32_t video_hash,
                             double now) const;
  // ... or known uncached and untracked (straight to the per-video largest
  // cached IAT of Sec. 6, or +infinity).
  double EstimateIatFromVideo(VideoId video, uint32_t video_hash, double now) const;

  // History bookkeeping. history_by_key_ (the proactive-fill candidate pool)
  // is only maintained when options_.proactive is set -- nothing reads it
  // otherwise, and its upkeep was a measurable share of the hot path.
  void HistoryPut(const ChunkId& chunk, const ChunkStat& stat, uint32_t chunk_hash);
  void HistoryErase(const ChunkId& chunk, uint32_t chunk_hash);
  // Moves a chunk's stat into the cached structures.
  void CacheInsert(const ChunkId& chunk, const ChunkStat& stat, uint32_t chunk_hash,
                   uint32_t video_hash);
  // Evicts a cached chunk, moving its stat back to history.
  void CacheEvict(const ChunkId& chunk);
  // Off-peak prefetching; returns the number of chunks filled.
  uint32_t ProactiveFill(double now);

  CafeOptions options_;

  // Cached chunks ordered by virtual timestamp (Top() = least popular),
  // plus their popularity stats (recency order unused; the map is the flat
  // slab store).
  container::ScoreHeap<ChunkId, double, ChunkIdHash> cached_;
  container::FlatLruMap<ChunkId, ChunkStat, ChunkIdHash> cached_stats_;
  // Chunks of each video currently on disk (for the unseen-chunk estimate).
  container::FlatChunkSetMap video_chunks_;
  // Popularity history of chunks *not* on disk, in recency order for cleanup.
  container::FlatLruMap<ChunkId, ChunkStat, ChunkIdHash> history_;
  // The same chunks ordered by virtual timestamp (Top() = most popular
  // uncached chunk), the proactive-fill candidate pool.
  container::ScoreHeap<ChunkId, double, ChunkIdHash, /*kMaxFirst=*/true> history_by_key_;
  // Videos ever seen (recency-ordered, cleaned with history_); a request for
  // a never-seen video is always redirected, as in xLRU.
  container::FlatLruMap<VideoId, double> video_seen_;
  double first_request_time_ = -1.0;

  // Request-rate tracking for off-peak detection.
  double last_arrival_ = -1.0;
  double rate_estimate_ = 0.0;
  double peak_rate_ = 0.0;

  // Reused across requests so the serve path does not allocate in steady
  // state.
  std::vector<ChunkId> all_chunks_scratch_;
  std::vector<ChunkId> missing_scratch_;
  std::vector<std::pair<ChunkId, double>> victims_scratch_;
  std::vector<uint8_t> contains_scratch_;
  std::vector<uint32_t> missing_hash_scratch_;
  RequestHashes hashes_;

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
