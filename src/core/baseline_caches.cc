// Copyright (c) 2026 libvcdn authors. Apache-2.0 license.

#include "src/core/baseline_caches.h"

#include <cmath>
#include <limits>

namespace vcdn::core {

namespace {
constexpr double kInfinity = std::numeric_limits<double>::infinity();
}  // namespace

RequestOutcome AlwaysFillLruCache::HandleRequestImpl(const trace::Request& request) {
  const double now = request.arrival_time;
  RequestOutcome outcome = MakeOutcome(request);
  ChunkRange range = ToChunkRange(request, config_.chunk_bytes);
  if (range.count() > config_.disk_capacity_chunks) {
    outcome.decision = Decision::kRedirect;
    return outcome;
  }

  std::vector<uint32_t>& missing = missing_scratch_;
  missing.clear();
  for (uint32_t c = range.first; c <= range.last; ++c) {
    ChunkId chunk{request.video, c};
    if (double* at = disk_.GetAndTouch(chunk)) {
      *at = now;
      ++outcome.hit_chunks;
    } else {
      missing.push_back(c);
    }
  }
  uint64_t needed = disk_.size() + missing.size();
  uint64_t to_evict =
      needed > config_.disk_capacity_chunks ? needed - config_.disk_capacity_chunks : 0;
  for (uint64_t i = 0; i < to_evict; ++i) {
    disk_.PopOldest();
    ++outcome.evicted_chunks;
  }
  for (uint32_t c : missing) {
    disk_.InsertOrTouch(ChunkId{request.video, c}, now);
    ++outcome.filled_chunks;
  }
  outcome.decision = Decision::kServe;
  return outcome;
}

uint64_t AlwaysFillLruCache::EvictDownTo(uint64_t max_chunks) {
  uint64_t evicted = 0;
  while (disk_.size() > max_chunks) {
    disk_.PopOldest();
    ++evicted;
  }
  return evicted;
}

double FillLfuCache::BumpKey(double old_key, double now) const {
  // Count in the "reference frame" of time `now`: 2^(key - now/halflife).
  double phase = now / aging_halflife_;
  double aged_count = std::exp2(old_key - phase);
  return std::log2(aged_count + 1.0) + phase;
}

RequestOutcome FillLfuCache::HandleRequestImpl(const trace::Request& request) {
  const double now = request.arrival_time;
  RequestOutcome outcome = MakeOutcome(request);
  ChunkRange range = ToChunkRange(request, config_.chunk_bytes);
  if (range.count() > config_.disk_capacity_chunks) {
    outcome.decision = Decision::kRedirect;
    return outcome;
  }

  std::vector<ChunkId>& missing = missing_scratch_;
  missing.clear();
  for (uint32_t c = range.first; c <= range.last; ++c) {
    ChunkId chunk{request.video, c};
    const double* key = cached_.GetScore(chunk);
    if (key != nullptr) {
      ++outcome.hit_chunks;
      cached_.InsertOrUpdate(chunk, BumpKey(*key, now));
    } else {
      missing.push_back(chunk);
    }
  }
  uint64_t needed = cached_.size() + missing.size();
  uint64_t to_evict =
      needed > config_.disk_capacity_chunks ? needed - config_.disk_capacity_chunks : 0;
  if (to_evict > 0) {
    // The chunks of this request were just bumped (count >= 1 at now), so a
    // fresh fill (count exactly 1) ties at worst and id-order tie-breaking
    // cannot evict a chunk inserted in this same loop... except pathological
    // id ties; skip current-request chunks defensively. Collecting the
    // victims in one ordered scan is equivalent to an erase-min-per-round
    // loop: erasing a victim does not reorder the rest.
    std::vector<ChunkId>& victims = victims_scratch_;
    victims.clear();
    cached_.ScanInOrder([&](const auto& item) {
      const ChunkId& chunk = item.second;
      if (chunk.video == request.video && chunk.index >= range.first &&
          chunk.index <= range.last) {
        return true;
      }
      victims.push_back(chunk);
      return victims.size() < to_evict;
    });
    VCDN_CHECK(victims.size() == to_evict);
    for (const ChunkId& victim : victims) {
      cached_.Erase(victim);
      ++outcome.evicted_chunks;
    }
  }
  double fresh_key = std::log2(1.0) + now / aging_halflife_;  // count = 1
  for (const ChunkId& chunk : missing) {
    cached_.InsertOrUpdate(chunk, fresh_key);
    ++outcome.filled_chunks;
  }
  outcome.decision = Decision::kServe;
  return outcome;
}

uint64_t FillLfuCache::EvictDownTo(uint64_t max_chunks) {
  uint64_t evicted = 0;
  while (cached_.size() > max_chunks) {
    cached_.PopTop();  // least frequent first
    ++evicted;
  }
  return evicted;
}

void BeladyCache::Prepare(const trace::Trace& trace) {
  futures_.clear();
  futures_.reserve(trace.requests.size());
  for (const trace::Request& r : trace.requests) {
    ChunkRange range = ToChunkRange(r, config_.chunk_bytes);
    for (uint32_t c = range.first; c <= range.last; ++c) {
      futures_[ChunkId{r.video, c}].times.push_back(r.arrival_time);
    }
  }
  prepared_ = true;
}

uint64_t BeladyCache::EvictDownTo(uint64_t max_chunks) {
  uint64_t evicted = 0;
  while (cached_.size() > max_chunks) {
    cached_.PopTop();  // farthest future first
    ++evicted;
  }
  return evicted;
}

RequestOutcome BeladyCache::HandleRequestImpl(const trace::Request& request) {
  VCDN_CHECK_MSG(prepared_, "BeladyCache::Prepare() must run before replay");
  const double now = request.arrival_time;
  RequestOutcome outcome = MakeOutcome(request);
  ChunkRange range = ToChunkRange(request, config_.chunk_bytes);
  if (range.count() > config_.disk_capacity_chunks) {
    outcome.decision = Decision::kRedirect;
    return outcome;
  }

  std::vector<ChunkId>& missing = missing_scratch_;
  missing.clear();
  for (uint32_t c = range.first; c <= range.last; ++c) {
    ChunkId chunk{request.video, c};
    auto it = futures_.find(chunk);
    VCDN_CHECK(it != futures_.end());
    FutureList& future = it->second;
    while (future.next < future.times.size() && future.times[future.next] <= now) {
      ++future.next;
    }
    double next_time =
        future.next < future.times.size() ? future.times[future.next] : kInfinity;
    if (cached_.Contains(chunk)) {
      ++outcome.hit_chunks;
      cached_.InsertOrUpdate(chunk, next_time);
    } else {
      missing.push_back(chunk);
      (void)next_time;
    }
  }

  uint64_t needed = cached_.size() + missing.size();
  uint64_t to_evict =
      needed > config_.disk_capacity_chunks ? needed - config_.disk_capacity_chunks : 0;
  for (uint64_t i = 0; i < to_evict; ++i) {
    // The farthest-future chunk cannot be one of this request's chunks: hits
    // were just re-keyed to imminent times and misses are not cached yet.
    cached_.PopTop();
    ++outcome.evicted_chunks;
  }
  for (const ChunkId& chunk : missing) {
    const FutureList& future = futures_.find(chunk)->second;
    double next_time =
        future.next < future.times.size() ? future.times[future.next] : kInfinity;
    cached_.InsertOrUpdate(chunk, next_time);
    ++outcome.filled_chunks;
  }
  outcome.decision = Decision::kServe;
  return outcome;
}

}  // namespace vcdn::core
