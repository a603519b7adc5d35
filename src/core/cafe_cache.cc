// Copyright (c) 2026 libvcdn authors. Apache-2.0 license.

#include "src/core/cafe_cache.h"

#include <algorithm>
#include <cmath>
#include <limits>

namespace vcdn::core {

namespace {
constexpr double kInfinity = std::numeric_limits<double>::infinity();
// Floor on IAT values when dividing (an IAT of 0 would make a chunk
// infinitely valuable; in practice it means "requested within this tick").
constexpr double kMinIat = 1e-6;
}  // namespace

CafeCache::CafeCache(const CacheConfig& config, const CafeOptions& options)
    : CacheAlgorithm(config), options_(options) {
  VCDN_CHECK(options_.gamma > 0.0 && options_.gamma <= 1.0);
  VCDN_CHECK(options_.history_retention_factor > 0.0);
  const auto capacity = static_cast<size_t>(config.disk_capacity_chunks);
  cached_.Reserve(capacity);
  cached_stats_.Reserve(capacity);
  // History holds roughly as many tracked-but-uncached chunks as the disk
  // holds cached ones (the cleanup horizon scales with cache age).
  history_.Reserve(capacity);
  if (options_.proactive) {
    // The by-key candidate pool is only maintained when proactive filling can
    // read it; otherwise it stays empty and unreserved.
    history_by_key_.Reserve(capacity);
  }
  video_seen_.Reserve(capacity);
  video_chunks_.Reserve(capacity);
}

double CafeCache::IatOf(const ChunkStat& stat, double now) const {
  // Eq. (8).
  return options_.gamma * (now - stat.t_last) + (1.0 - options_.gamma) * stat.dt;
}

double CafeCache::VirtualKey(const ChunkStat& stat) const {
  // Theorem 1 with T0 = 0: key = T0 - IAT(T0) = gamma*t_last - (1-gamma)*dt.
  return options_.gamma * stat.t_last - (1.0 - options_.gamma) * stat.dt;
}

void CafeCache::UpdateStat(ChunkStat& stat, double now) const {
  stat.dt = options_.gamma * (now - stat.t_last) + (1.0 - options_.gamma) * stat.dt;
  stat.t_last = now;
}

double CafeCache::CacheAge(double now) const {
  if (cached_.empty()) {
    return 0.0;
  }
  const ChunkId& least_popular = cached_.Top().second;
  const ChunkStat* stat = cached_stats_.Peek(least_popular);
  VCDN_DCHECK(stat != nullptr);
  return std::max(0.0, IatOf(*stat, now));
}

double CafeCache::EstimateIat(const ChunkId& chunk, double now) const {
  if (const ChunkStat* cached_stat = cached_stats_.Peek(chunk)) {
    return std::max(kMinIat, IatOf(*cached_stat, now));
  }
  if (const ChunkStat* stat = history_.Peek(chunk)) {
    return std::max(kMinIat, IatOf(*stat, now));
  }
  return EstimateIatFromVideo(chunk.video, video_chunks_.HashOf(chunk.video), now);
}

double CafeCache::EstimateIatUncached(const ChunkId& chunk, uint32_t chunk_hash,
                                      uint32_t video_hash, double now) const {
  // cached_ and cached_stats_ always hold the same key set, so a chunk known
  // missing from cached_ cannot be in cached_stats_ -- skip that probe.
  VCDN_DCHECK(cached_stats_.Peek(chunk) == nullptr);
  if (const ChunkStat* stat = history_.Peek(chunk, chunk_hash)) {
    return std::max(kMinIat, IatOf(*stat, now));
  }
  return EstimateIatFromVideo(chunk.video, video_hash, now);
}

double CafeCache::EstimateIatFromVideo(VideoId video, uint32_t video_hash, double now) const {
  if (!options_.estimate_unseen_from_video) {
    return kInfinity;
  }
  // Sec. 6 optimization: a never-seen chunk of a partially cached video
  // inherits the largest recorded IAT among the video's cached chunks.
  // max() is order-independent, so the set's iteration order is immaterial.
  bool any = false;
  double worst = 0.0;
  video_chunks_.ForEach(video, video_hash, [&](uint32_t index) {
    const ChunkStat* stat = cached_stats_.Peek(ChunkId{video, index});
    VCDN_DCHECK(stat != nullptr);
    any = true;
    worst = std::max(worst, IatOf(*stat, now));
  });
  return any ? std::max(kMinIat, worst) : kInfinity;
}

void CafeCache::CleanupHistory(double now) {
  double age = CacheAge(now);
  if (age <= 0.0) {
    return;
  }
  double horizon = age * options_.history_retention_factor / std::min(1.0, config_.alpha_f2r);
  while (!history_.empty() && now - history_.Oldest().value.t_last > horizon) {
    if (options_.proactive) {
      history_by_key_.Erase(history_.Oldest().key);
    }
    history_.PopOldest();
  }
  while (!video_seen_.empty() && now - video_seen_.Oldest().value > horizon) {
    video_seen_.PopOldest();
  }
}

void CafeCache::HistoryPut(const ChunkId& chunk, const ChunkStat& stat, uint32_t chunk_hash) {
  history_.InsertOrTouch(chunk, stat, chunk_hash);
  if (options_.proactive) {
    history_by_key_.InsertOrUpdate(chunk, VirtualKey(stat), chunk_hash);
  }
}

void CafeCache::HistoryErase(const ChunkId& chunk, uint32_t chunk_hash) {
  history_.Erase(chunk, chunk_hash);
  if (options_.proactive) {
    history_by_key_.Erase(chunk, chunk_hash);
  }
}

void CafeCache::CacheInsert(const ChunkId& chunk, const ChunkStat& stat, uint32_t chunk_hash,
                            uint32_t video_hash) {
  cached_stats_.InsertOrTouch(chunk, stat, chunk_hash);
  cached_.InsertOrUpdate(chunk, VirtualKey(stat), chunk_hash);
  video_chunks_.Insert(chunk.video, chunk.index, video_hash);
}

void CafeCache::CacheEvict(const ChunkId& chunk) {
  // Victims are arbitrary chunks (not the request's), so their hashes are not
  // pre-computed; hash once here and reuse across the five probes.
  const uint32_t chunk_hash = cached_stats_.HashOf(chunk);
  const uint32_t video_hash = video_chunks_.HashOf(chunk.video);
  const ChunkStat* stat = cached_stats_.Peek(chunk, chunk_hash);
  VCDN_DCHECK(stat != nullptr);
  HistoryPut(chunk, *stat, chunk_hash);
  cached_stats_.Erase(chunk, chunk_hash);
  cached_.Erase(chunk, chunk_hash);
  video_chunks_.Erase(chunk.video, chunk.index, video_hash);
}

uint64_t CafeCache::EvictDownTo(uint64_t max_chunks) {
  uint64_t evicted = 0;
  while (cached_.size() > max_chunks) {
    ChunkId victim = cached_.Top().second;  // copy: eviction invalidates refs
    CacheEvict(victim);
    ++evicted;
  }
  return evicted;
}

uint32_t CafeCache::ProactiveFill(double now) {
  // Off-peak only: the smoothed request rate must sit well below the peak.
  if (rate_estimate_ <= 0.0 || peak_rate_ <= 0.0 ||
      rate_estimate_ > options_.proactive_rate_threshold * peak_rate_) {
    return 0;
  }
  const double window = CacheAge(now);
  const double min_cost = cost_.min_cost();
  uint32_t filled = 0;
  while (filled < options_.proactive_fills_per_request && !history_by_key_.empty()) {
    auto [key, chunk] = history_by_key_.Top();  // most popular uncached chunk
    const ChunkStat* stat = history_.Peek(chunk);
    VCDN_DCHECK(stat != nullptr);

    // Prefetch only when it pays under Cafe's own cost model (Eqs. 6-7):
    // the expected future redirects/fills avoided must exceed the fill cost
    // plus, if the disk is full, the victim's own expected future value.
    double gain = window / std::max(kMinIat, IatOf(*stat, now)) * min_cost;
    bool disk_full = cached_.size() >= config_.disk_capacity_chunks;
    if (disk_full) {
      if (cached_.empty() || key <= cached_.Top().first) {
        break;
      }
      const ChunkStat* victim_stat = cached_stats_.Peek(cached_.Top().second);
      VCDN_DCHECK(victim_stat != nullptr);
      gain -= window / std::max(kMinIat, IatOf(*victim_stat, now)) * min_cost;
    }
    if (gain <= cost_.fill_cost() * options_.proactive_cost_discount) {
      // Candidates are popularity-ordered; nothing further down can pay.
      break;
    }

    ChunkStat moved = *stat;
    const uint32_t chunk_hash = history_.HashOf(chunk);
    HistoryErase(chunk, chunk_hash);
    if (disk_full) {
      ChunkId victim = cached_.Top().second;  // copy: eviction invalidates refs
      CacheEvict(victim);
    }
    CacheInsert(chunk, moved, chunk_hash, video_chunks_.HashOf(chunk.video));
    ++filled;
  }
  return filled;
}

void CafeCache::OnAttachMetrics(obs::MetricsRegistry& registry, const std::string& prefix) {
  admit_serve_total_ = registry.GetCounter(prefix + "admit_serve_total");
  admit_redirect_cost_total_ = registry.GetCounter(prefix + "admit_redirect_cost_total");
  admit_redirect_unseen_total_ = registry.GetCounter(prefix + "admit_redirect_unseen_total");
  admit_redirect_too_wide_total_ = registry.GetCounter(prefix + "admit_redirect_too_wide_total");
  proactive_fill_rounds_total_ = registry.GetCounter(prefix + "proactive_fill_rounds_total");
  history_chunks_gauge_ = registry.GetGauge(prefix + "history_chunks");
  tracked_videos_gauge_ = registry.GetGauge(prefix + "tracked_videos");
  cache_age_gauge_ = registry.GetGauge(prefix + "cache_age_seconds");
  request_rate_gauge_ = registry.GetGauge(prefix + "request_rate_per_sec");
}

void CafeCache::OnOutcomeRecorded() {
  history_chunks_gauge_.Set(static_cast<double>(history_.size()));
  tracked_videos_gauge_.Set(static_cast<double>(video_seen_.size()));
  cache_age_gauge_.Set(CacheAge(last_arrival_));
  request_rate_gauge_.Set(rate_estimate_);
}

void CafeCache::ComputeHashes(const trace::Request& request, RequestHashes& out) const {
  // video_seen_ and video_chunks_ share their hash (same Key/Hash pair), as
  // do cached_, cached_stats_, history_ and history_by_key_ (ChunkIdHash).
  out.video_hash = video_seen_.HashOf(request.video);
  ChunkRange range = ToChunkRange(request, config_.chunk_bytes);
  out.chunk_hashes.clear();
  out.chunk_hashes.reserve(range.count());
  for (uint32_t c = range.first; c <= range.last; ++c) {
    out.chunk_hashes.push_back(cached_.HashOf(ChunkId{request.video, c}));
  }
}

RequestOutcome CafeCache::HandleRequestImpl(const trace::Request& request) {
  RequestHashes& hashes = hashes_;
  ComputeHashes(request, hashes);
  const double now = request.arrival_time;
  if (first_request_time_ < 0.0) {
    first_request_time_ = now;
  }
  RequestOutcome outcome = MakeOutcome(request);
  ChunkRange range = ToChunkRange(request, config_.chunk_bytes);
  const size_t chunk_count = range.count();
  VCDN_DCHECK(hashes.chunk_hashes.size() == chunk_count);

  // Classify the requested chunks (S) into present and missing (S'), with
  // the membership probes interleaved so their index misses overlap.
  std::vector<ChunkId>& all_chunks = all_chunks_scratch_;
  std::vector<ChunkId>& missing = missing_scratch_;
  std::vector<uint32_t>& missing_hashes = missing_hash_scratch_;
  all_chunks.clear();
  missing.clear();
  missing_hashes.clear();
  all_chunks.reserve(chunk_count);
  for (uint32_t c = range.first; c <= range.last; ++c) {
    all_chunks.push_back(ChunkId{request.video, c});
  }
  contains_scratch_.resize(chunk_count);
  cached_.ContainsMany(all_chunks.data(), hashes.chunk_hashes.data(), chunk_count,
                       contains_scratch_.data());
  for (size_t i = 0; i < chunk_count; ++i) {
    if (!contains_scratch_[i]) {
      missing.push_back(all_chunks[i]);
      missing_hashes.push_back(hashes.chunk_hashes[i]);
    }
  }
  outcome.hit_chunks = static_cast<uint32_t>(chunk_count - missing.size());

  // First-ever request for this video: no popularity signal at all; redirect
  // (the same rule as xLRU's "t == NULL" -- Sec. 9.2 confirms Cafe
  // intentionally never admits a never-seen file). One InsertOrTouch both
  // reads the previous presence and records this request's touch.
  const bool video_seen = !video_seen_.InsertOrTouch(request.video, now, hashes.video_hash);

  bool admit = false;
  std::vector<std::pair<ChunkId, double>>& victims = victims_scratch_;  // (chunk, IAT at now)
  victims.clear();
  if (video_seen && chunk_count <= config_.disk_capacity_chunks) {
    // Select eviction victims S'': the least popular cached chunks, skipping
    // requested ones. Only as many as the fill would overflow the disk.
    uint64_t needed = cached_.size() + missing.size();
    uint64_t evictions = needed > config_.disk_capacity_chunks
                             ? needed - config_.disk_capacity_chunks
                             : 0;
    if (evictions > 0) {
      cached_.ScanInOrder([&](const auto& item) {
        const ChunkId& chunk = item.second;
        if (victims.size() >= evictions) {
          return false;
        }
        if (chunk.video == request.video && chunk.index >= range.first &&
            chunk.index <= range.last) {
          return true;  // never evict a chunk this request needs
        }
        const ChunkStat* stat = cached_stats_.Peek(chunk);
        VCDN_DCHECK(stat != nullptr);
        victims.emplace_back(chunk, std::max(kMinIat, IatOf(*stat, now)));
        return victims.size() < evictions;
      });
      VCDN_CHECK(victims.size() == evictions);
    }

    // Lookahead window T: the cache age; while the disk is still filling the
    // natural churn horizon is the cache's lifetime so far.
    double window = CacheAge(now);
    if (cached_.size() < config_.disk_capacity_chunks) {
      window = std::max(window, now - first_request_time_);
    }

    // Eqs. (6) and (7).
    double min_cost = cost_.min_cost();
    double cost_serve = static_cast<double>(missing.size()) * cost_.fill_cost();
    for (const auto& [chunk, iat] : victims) {
      cost_serve += window / iat * min_cost;
    }
    double cost_redirect = static_cast<double>(all_chunks.size()) * cost_.redirect_cost();
    for (size_t i = 0; i < missing.size(); ++i) {
      double iat = EstimateIatUncached(missing[i], missing_hashes[i], hashes.video_hash, now);
      if (std::isfinite(iat)) {
        cost_redirect += window / iat * min_cost;
      }
    }
    admit = cost_serve <= cost_redirect;
  }

  if (admit) {
    admit_serve_total_.Increment();
    // Evict S'' (stats move to history), fill S', touch all of S.
    for (const auto& [chunk, iat] : victims) {
      (void)iat;
      CacheEvict(chunk);
      ++outcome.evicted_chunks;
    }
    for (size_t i = 0; i < chunk_count; ++i) {
      const ChunkId& chunk = all_chunks[i];
      const uint32_t chunk_hash = hashes.chunk_hashes[i];
      if (ChunkStat* stat = cached_stats_.PeekMut(chunk, chunk_hash)) {
        // Hit: EWMA update and re-key.
        UpdateStat(*stat, now);
        cached_.InsertOrUpdate(chunk, VirtualKey(*stat), chunk_hash);
        continue;
      }
      // Fill: seed the stat from history, or initialize a fresh one. The
      // chunk is uncached and (in the else branch) untracked, so the IAT
      // estimate goes straight to the per-video fallback.
      ChunkStat stat;
      if (const ChunkStat* h = history_.Peek(chunk, chunk_hash)) {
        stat = *h;
        HistoryErase(chunk, chunk_hash);
        UpdateStat(stat, now);
      } else {
        double estimate = EstimateIatFromVideo(request.video, hashes.video_hash, now);
        stat.dt = std::isfinite(estimate) ? estimate : std::max(CacheAge(now), kMinIat);
        stat.t_last = now;
      }
      CacheInsert(chunk, stat, chunk_hash, hashes.video_hash);
      ++outcome.filled_chunks;
    }
    outcome.decision = Decision::kServe;
  } else {
    if (!video_seen) {
      admit_redirect_unseen_total_.Increment();
    } else if (chunk_count > config_.disk_capacity_chunks) {
      admit_redirect_too_wide_total_.Increment();
    } else {
      admit_redirect_cost_total_.Increment();
    }
    // Redirect. The request still signals popularity: update every requested
    // chunk's stat (cached chunks get re-keyed, uncached ones tracked in
    // history).
    for (size_t i = 0; i < chunk_count; ++i) {
      const ChunkId& chunk = all_chunks[i];
      const uint32_t chunk_hash = hashes.chunk_hashes[i];
      if (ChunkStat* cached_stat = cached_stats_.PeekMut(chunk, chunk_hash)) {
        UpdateStat(*cached_stat, now);
        cached_.InsertOrUpdate(chunk, VirtualKey(*cached_stat), chunk_hash);
        continue;
      }
      ChunkStat stat;
      if (const ChunkStat* h = history_.Peek(chunk, chunk_hash)) {
        stat = *h;
        UpdateStat(stat, now);
      } else {
        double estimate = EstimateIatFromVideo(request.video, hashes.video_hash, now);
        stat.dt = std::isfinite(estimate) ? estimate : std::max(CacheAge(now), kMinIat);
        stat.t_last = now;
      }
      HistoryPut(chunk, stat, chunk_hash);
    }
    outcome.decision = Decision::kRedirect;
  }

  // Request-rate tracking and, when enabled, off-peak prefetching (Sec. 10).
  if (last_arrival_ >= 0.0 && now > last_arrival_) {
    double instantaneous = 1.0 / (now - last_arrival_);
    double smoothing = options_.proactive_rate_smoothing;
    rate_estimate_ = rate_estimate_ <= 0.0
                         ? instantaneous
                         : smoothing * instantaneous + (1.0 - smoothing) * rate_estimate_;
    peak_rate_ = std::max(peak_rate_ * (1.0 - smoothing * 0.01), rate_estimate_);
  }
  last_arrival_ = now;
  if (options_.proactive) {
    outcome.proactive_filled_chunks = ProactiveFill(now);
    if (outcome.proactive_filled_chunks > 0) {
      proactive_fill_rounds_total_.Increment();
    }
  }

  CleanupHistory(now);
  return outcome;
}

}  // namespace vcdn::core
