// Copyright (c) 2026 libvcdn authors. Apache-2.0 license.
//
// IndexedHeap: the binary-heap core shared by ScoreHeap and Cafe's chunk
// table.
//
// The heap array holds {score, handle} entries inline, so sifting compares
// scores without touching the owner's slab. The owner keeps everything else
// in its own slab, addressed by handle:
//
//   * each handle's current heap position, so Update/Remove are O(log n)
//     from a known position instead of a search;
//   * each handle's id, which breaks score ties so the order is total
//     (score, id) -- the order of an ordered set of (score, id) pairs. The
//     min-first heap orders ascending (set begin()), the max-first heap
//     descending (set rbegin()), so which heap holds the items never changes
//     Top() or a scan's sequence, and replay totals stay container-agnostic.
//
// Both are reached through a `Slots` adaptor passed to every call that needs
// them:
//
//   void SetPos(uint32_t handle, uint32_t pos) const;  // record a position
//   bool IdLess(uint32_t a, uint32_t b) const;         // id(a) < id(b)
//
// Ordered partial traversal (victim selection skips chunks of the current
// request) is ScanInOrder: an auxiliary heap over heap positions yields
// globally sorted order because every heap parent precedes its children; the
// scratch buffer is a reused member, so steady-state scans do not allocate.
//
// Not thread-safe (ScanInOrder reuses mutable scratch).

#ifndef VCDN_SRC_CONTAINER_INDEXED_HEAP_H_
#define VCDN_SRC_CONTAINER_INDEXED_HEAP_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "src/util/check.h"

namespace vcdn::container {

// kMaxFirst = false: Top() is the least (score, id).
// kMaxFirst = true:  Top() is the greatest (score, id).
template <typename Score, bool kMaxFirst = false>
class IndexedHeap {
 public:
  struct Entry {
    Score score;
    uint32_t handle;
  };

  void Reserve(size_t capacity) { heap_.reserve(capacity); }
  size_t size() const { return heap_.size(); }
  bool empty() const { return heap_.empty(); }
  void Clear() { heap_.clear(); }

  // Best entry toward the configured end. Must be non-empty.
  const Entry& Top() const {
    VCDN_CHECK(!heap_.empty());
    return heap_[0];
  }

  // The entry at heap position `pos` (a position the owner recorded).
  const Entry& At(uint32_t pos) const {
    VCDN_DCHECK(pos < heap_.size());
    return heap_[pos];
  }

  template <typename Slots>
  void Push(const Score& score, uint32_t handle, const Slots& slots) {
    heap_.push_back(Entry{score, handle});
    SiftUp(static_cast<uint32_t>(heap_.size() - 1), slots);
  }

  // Moves the entry at `pos` to a new score.
  template <typename Slots>
  void Update(uint32_t pos, const Score& score, const Slots& slots) {
    VCDN_DCHECK(pos < heap_.size());
    heap_[pos].score = score;
    if (!SiftUp(pos, slots)) {
      SiftDown(pos, slots);
    }
  }

  // Removes the entry at `pos`: swap the last entry in, restore order.
  template <typename Slots>
  void Remove(uint32_t pos, const Slots& slots) {
    VCDN_DCHECK(pos < heap_.size());
    const Entry last = heap_.back();
    heap_.pop_back();
    if (pos < heap_.size()) {
      heap_[pos] = last;
      if (!SiftUp(pos, slots)) {
        SiftDown(pos, slots);
      }
    }
  }

  // Visits entries in order from Top() outward (globally sorted toward the
  // configured end) until `fn` returns false or entries run out. `fn` must
  // not mutate the heap; collect first, mutate after.
  template <typename Slots, typename Fn>
  void ScanInOrder(const Slots& slots, Fn&& fn) const {
    if (heap_.empty()) {
      return;
    }
    scan_scratch_.clear();
    scan_scratch_.push_back(0);
    auto later = [&](uint32_t a, uint32_t b) {
      // "a comes after b": std heap ops then surface the scan-next position.
      return Before(heap_[b], heap_[a], slots);
    };
    while (!scan_scratch_.empty()) {
      std::pop_heap(scan_scratch_.begin(), scan_scratch_.end(), later);
      const uint32_t pos = scan_scratch_.back();
      scan_scratch_.pop_back();
      if (!fn(heap_[pos])) {
        return;
      }
      for (uint32_t child = pos * 2 + 1; child <= pos * 2 + 2; ++child) {
        if (child < heap_.size()) {
          scan_scratch_.push_back(child);
          std::push_heap(scan_scratch_.begin(), scan_scratch_.end(), later);
        }
      }
    }
  }

 private:
  // Heap order toward the configured end; ties always break on id so the
  // order is total and replay-deterministic.
  template <typename Slots>
  static bool Before(const Entry& a, const Entry& b, const Slots& slots) {
    if constexpr (kMaxFirst) {
      if (a.score != b.score) {
        return b.score < a.score;
      }
      return slots.IdLess(b.handle, a.handle);
    } else {
      if (a.score != b.score) {
        return a.score < b.score;
      }
      return slots.IdLess(a.handle, b.handle);
    }
  }

  // Hole-based sifts: the moving entry is written once, at its final
  // position. Returns true if the entry moved.
  template <typename Slots>
  bool SiftUp(uint32_t pos, const Slots& slots) {
    const Entry moving = heap_[pos];
    const uint32_t start = pos;
    while (pos > 0) {
      const uint32_t parent = (pos - 1) / 2;
      if (!Before(moving, heap_[parent], slots)) {
        break;
      }
      heap_[pos] = heap_[parent];
      slots.SetPos(heap_[pos].handle, pos);
      pos = parent;
    }
    heap_[pos] = moving;
    slots.SetPos(moving.handle, pos);
    return pos != start;
  }

  template <typename Slots>
  void SiftDown(uint32_t pos, const Slots& slots) {
    const Entry moving = heap_[pos];
    const size_t count = heap_.size();
    while (true) {
      size_t best = pos;
      const Entry* best_entry = &moving;
      for (size_t child = static_cast<size_t>(pos) * 2 + 1;
           child <= static_cast<size_t>(pos) * 2 + 2 && child < count; ++child) {
        if (Before(heap_[child], *best_entry, slots)) {
          best = child;
          best_entry = &heap_[child];
        }
      }
      if (best == pos) {
        break;
      }
      heap_[pos] = heap_[best];
      slots.SetPos(heap_[pos].handle, pos);
      pos = static_cast<uint32_t>(best);
    }
    heap_[pos] = moving;
    slots.SetPos(moving.handle, pos);
  }

  std::vector<Entry> heap_;
  // Reused by ScanInOrder so steady-state scans do not allocate.
  mutable std::vector<uint32_t> scan_scratch_;
};

}  // namespace vcdn::container

#endif  // VCDN_SRC_CONTAINER_INDEXED_HEAP_H_
