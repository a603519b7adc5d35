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
  // The table holds the cached chunks plus the tracked-but-uncached history,
  // whose cleanup horizon scales with the cache age. On the scale-1.0 Fig. 7
  // fleet (4,096-chunk disk) the history peaked at 16.8K-73.5K chunks, 4.1-18x
  // the disk, so the slab and index start at twice the disk and grow by
  // doubling during warm-up; steady state then allocates nothing.
  slots_.reserve(2 * capacity);
  index_.Reserve(2 * capacity);
  cached_.Reserve(capacity);
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
  return std::max(0.0, IatOf(slots_[cached_.Top().handle].stat, now));
}

double CafeCache::EstimateIat(const ChunkId& chunk, double now) const {
  const uint32_t slot = FindSlot(chunk);
  if (slot != kNil) {
    return std::max(kMinIat, IatOf(slots_[slot].stat, now));
  }
  return EstimateIatFromVideo(chunk.video, now);
}

double CafeCache::EstimateIatFromVideo(VideoId video, double now) const {
  if (!options_.estimate_unseen_from_video) {
    return kInfinity;
  }
  // Sec. 6 optimization: a never-seen chunk of a partially cached video
  // inherits the largest recorded IAT among the video's cached chunks.
  // max() is order-independent, so the set's iteration order is immaterial.
  bool any = false;
  double worst = 0.0;
  video_chunks_.ForEach(video, [&](uint32_t slot) {
    VCDN_DCHECK(IsCached(slot));
    any = true;
    worst = std::max(worst, IatOf(slots_[slot].stat, now));
  });
  return any ? std::max(kMinIat, worst) : kInfinity;
}

uint32_t CafeCache::NewSlot(const ChunkId& chunk, const ChunkStat& stat) {
  uint32_t slot;
  if (free_ != kNil) {
    slot = free_;
    free_ = slots_[slot].next;
  } else {
    VCDN_CHECK_MSG(slots_.size() < kCachedMark, "Cafe chunk table slab limit exceeded");
    slot = static_cast<uint32_t>(slots_.size());
    slots_.emplace_back();
  }
  Slot& s = slots_[slot];
  s.video = chunk.video;
  s.index = chunk.index;
  s.stat = stat;
  index_.Insert(index_.HashOf(chunk), slot);
  return slot;
}

void CafeCache::HistoryPush(uint32_t slot) {
  Slot& s = slots_[slot];
  s.prev = kNil;
  s.next = history_head_;
  if (history_head_ != kNil) {
    slots_[history_head_].prev = slot;
  } else {
    history_tail_ = slot;
  }
  history_head_ = slot;
  ++history_size_;
  if (options_.proactive) {
    history_by_key_.Push(VirtualKey(s.stat), slot, Slots());
  }
}

void CafeCache::HistoryUnlink(uint32_t slot) {
  const Slot& s = slots_[slot];
  VCDN_DCHECK(!IsCached(slot));
  if (s.prev != kNil) {
    slots_[s.prev].next = s.next;
  } else {
    history_head_ = s.next;
  }
  if (s.next != kNil) {
    slots_[s.next].prev = s.prev;
  } else {
    history_tail_ = s.prev;
  }
  --history_size_;
  if (options_.proactive) {
    history_by_key_.Remove(s.heap_pos, Slots());
  }
}

void CafeCache::CacheInsert(uint32_t slot) {
  Slot& s = slots_[slot];
  s.prev = kCachedMark;
  cached_.Push(VirtualKey(s.stat), slot, Slots());
  video_chunks_.Insert(s.video, slot);
}

void CafeCache::CacheEvict(uint32_t slot) {
  VCDN_DCHECK(IsCached(slot));
  cached_.Remove(slots_[slot].heap_pos, Slots());
  video_chunks_.Erase(slots_[slot].video, slot);
  HistoryPush(slot);
}

void CafeCache::CleanupHistory(double now) {
  double age = CacheAge(now);
  if (age <= 0.0) {
    return;
  }
  double horizon = age * options_.history_retention_factor / std::min(1.0, config_.alpha_f2r);
  while (history_tail_ != kNil && now - slots_[history_tail_].stat.t_last > horizon) {
    const uint32_t slot = history_tail_;
    const ChunkId chunk = slots_[slot].id();
    index_.Erase(index_.HashOf(chunk), chunk, KeyAtFn{&slots_});
    HistoryUnlink(slot);
    slots_[slot].next = free_;
    free_ = slot;
  }
  while (!video_seen_.empty() && now - video_seen_.Oldest().value > horizon) {
    video_seen_.PopOldest();
  }
}

uint64_t CafeCache::EvictDownTo(uint64_t max_chunks) {
  uint64_t evicted = 0;
  while (cached_.size() > max_chunks) {
    CacheEvict(cached_.Top().handle);
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
    // Most popular uncached chunk.
    const auto [key, slot] = history_by_key_.Top();

    // Prefetch only when it pays under Cafe's own cost model (Eqs. 6-7):
    // the expected future redirects/fills avoided must exceed the fill cost
    // plus, if the disk is full, the victim's own expected future value.
    double gain = window / std::max(kMinIat, IatOf(slots_[slot].stat, now)) * min_cost;
    bool disk_full = cached_.size() >= config_.disk_capacity_chunks;
    if (disk_full) {
      if (cached_.empty() || key <= cached_.Top().score) {
        break;
      }
      const ChunkStat& victim_stat = slots_[cached_.Top().handle].stat;
      gain -= window / std::max(kMinIat, IatOf(victim_stat, now)) * min_cost;
    }
    if (gain <= cost_.fill_cost() * options_.proactive_cost_discount) {
      // Candidates are popularity-ordered; nothing further down can pay.
      break;
    }

    HistoryUnlink(slot);
    if (disk_full) {
      CacheEvict(cached_.Top().handle);
    }
    CacheInsert(slot);
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
  history_chunks_gauge_.Set(static_cast<double>(history_size_));
  tracked_videos_gauge_.Set(static_cast<double>(video_seen_.size()));
  cache_age_gauge_.Set(CacheAge(last_arrival_));
  request_rate_gauge_.Set(rate_estimate_);
}

RequestOutcome CafeCache::HandleRequestImpl(const trace::Request& request) {
  const double now = request.arrival_time;
  if (first_request_time_ < 0.0) {
    first_request_time_ = now;
  }
  RequestOutcome outcome = MakeOutcome(request);
  const ChunkRange range = ToChunkRange(request, config_.chunk_bytes);
  const uint32_t chunk_count = range.count();

  // Classify the requested chunks (S) with one table probe each: a slot is
  // cached (a hit), uncached with history, or kNil (untracked). The missing
  // set S' is every requested chunk that is not cached.
  std::vector<uint32_t>& slots = request_slots_;
  slots.clear();
  uint32_t missing = 0;
  for (uint32_t c = range.first; c <= range.last; ++c) {
    const uint32_t slot = FindSlot(ChunkId{request.video, c});
    slots.push_back(slot);
    if (slot == kNil || !IsCached(slot)) {
      ++missing;
    }
  }
  outcome.hit_chunks = chunk_count - missing;

  // First-ever request for this video: no popularity signal at all; redirect
  // (the same rule as xLRU's "t == NULL" -- Sec. 9.2 confirms Cafe
  // intentionally never admits a never-seen file). One InsertOrTouch both
  // reads the previous presence and records this request's touch.
  const bool video_seen = !video_seen_.InsertOrTouch(request.video, now);

  bool admit = false;
  std::vector<std::pair<uint32_t, double>>& victims = victims_scratch_;  // (slot, IAT at now)
  victims.clear();
  if (video_seen && chunk_count <= config_.disk_capacity_chunks) {
    // Select eviction victims S'': the least popular cached chunks, skipping
    // requested ones. Only as many as the fill would overflow the disk.
    uint64_t needed = cached_.size() + missing;
    uint64_t evictions = needed > config_.disk_capacity_chunks
                             ? needed - config_.disk_capacity_chunks
                             : 0;
    if (evictions > 0) {
      cached_.ScanInOrder(Slots(), [&](const auto& entry) {
        if (victims.size() >= evictions) {
          return false;
        }
        const Slot& s = slots_[entry.handle];
        if (s.video == request.video && s.index >= range.first && s.index <= range.last) {
          return true;  // never evict a chunk this request needs
        }
        victims.emplace_back(entry.handle, std::max(kMinIat, IatOf(s.stat, now)));
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
    double cost_serve = static_cast<double>(missing) * cost_.fill_cost();
    for (const auto& [slot, iat] : victims) {
      cost_serve += window / iat * min_cost;
    }
    double cost_redirect = static_cast<double>(chunk_count) * cost_.redirect_cost();
    for (const uint32_t slot : slots) {
      if (slot != kNil && IsCached(slot)) {
        continue;
      }
      const double iat = slot != kNil ? std::max(kMinIat, IatOf(slots_[slot].stat, now))
                                      : EstimateIatFromVideo(request.video, now);
      if (std::isfinite(iat)) {
        cost_redirect += window / iat * min_cost;
      }
    }
    admit = cost_serve <= cost_redirect;
  }

  if (admit) {
    admit_serve_total_.Increment();
    // Evict S'' (stats move to history) before filling S'.
    for (const auto& [slot, iat] : victims) {
      (void)iat;
      CacheEvict(slot);
      ++outcome.evicted_chunks;
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
    outcome.decision = Decision::kRedirect;
  }
  // Touch all of S: either way the request signals popularity. Cached chunks
  // get an EWMA update and are re-keyed; an uncached chunk's stat is carried
  // over from history, or seeded from the per-video fallback (which sees this
  // request's earlier fills), and the chunk is filled (serve) or moved to the
  // front of the history (redirect).
  for (uint32_t i = 0; i < chunk_count; ++i) {
    uint32_t slot = slots[i];
    if (slot != kNil && IsCached(slot)) {
      ChunkStat& stat = slots_[slot].stat;
      UpdateStat(stat, now);
      cached_.Update(slots_[slot].heap_pos, VirtualKey(stat), Slots());
      continue;
    }
    if (slot != kNil) {
      HistoryUnlink(slot);
      UpdateStat(slots_[slot].stat, now);
    } else {
      ChunkStat stat;
      double estimate = EstimateIatFromVideo(request.video, now);
      stat.dt = std::isfinite(estimate) ? estimate : std::max(CacheAge(now), kMinIat);
      stat.t_last = now;
      slot = NewSlot(ChunkId{request.video, range.first + i}, stat);
    }
    if (admit) {
      CacheInsert(slot);
      ++outcome.filled_chunks;
    } else {
      HistoryPush(slot);
    }
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
