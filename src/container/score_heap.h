// Copyright (c) 2026 libvcdn authors. Apache-2.0 license.
//
// ScoreHeap: the flat successor of the node-based OrderedKeySet (which
// survives as the test oracle in tests/ordered_key_set_oracle.h).
//
// Section 6's "binary tree set plus hash map" kept Cafe's virtual timestamps
// in a red-black std::set -- one node allocation and a pointer-chasing
// rebalance per update. Every algorithm in this repo only ever consumes the
// ordering from ONE end (Cafe/FillLFU evict the least-score chunk,
// Psychic/Belady the greatest), so the total order can be relaxed to an
// indexed binary heap over one contiguous slab:
//
//   * nodes_   -- slab of (score, id, heap position); erased nodes recycle
//                 through a free list, zero allocations in steady state;
//   * heap_    -- binary heap of uint32_t node handles, ordered by
//                 (score, id) toward the configured end;
//   * index_   -- FlatIndex id -> handle (open addressing, backshift).
//
// Update/Erase are O(log n) sift operations on the index array; Top is O(1).
// Tie-breaking is deterministic and identical to an ordered set of
// (score, id): the min-first heap orders ascending (set begin()), the
// max-first heap descending (set rbegin()), so eviction victim order -- and
// therefore every replay total -- does not depend on the container.
//
// Ordered partial traversal (victim selection skips chunks of the current
// request) is ScanInOrder: an auxiliary heap over heap positions yields
// globally sorted order because every heap parent precedes its children; the
// scratch buffer is a reused member, so steady-state scans do not allocate.
//
// Not thread-safe (ScanInOrder reuses mutable scratch); replay shards each
// own their instances.

#ifndef VCDN_SRC_CONTAINER_SCORE_HEAP_H_
#define VCDN_SRC_CONTAINER_SCORE_HEAP_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "src/container/flat_index.h"
#include "src/util/check.h"

namespace vcdn::container {

// kMaxFirst = false: Top() is the least (score, id)   -- OrderedKeySet::Min.
// kMaxFirst = true:  Top() is the greatest (score, id) -- OrderedKeySet::Max.
template <typename Id, typename Score, typename Hash = std::hash<Id>, bool kMaxFirst = false>
class ScoreHeap {
 public:
  static constexpr uint32_t kNil = UINT32_MAX;
  using Item = std::pair<Score, Id>;  // ordered by score, then id

  void Reserve(size_t capacity) {
    nodes_.reserve(capacity);
    heap_.reserve(capacity);
    index_.Reserve(capacity);
  }

  size_t size() const { return heap_.size(); }
  bool empty() const { return heap_.empty(); }

  // Mixed 32-bit hash of `id` -- identical across every FlatIndex-backed
  // container instantiated with the same Id/Hash (hash once, reuse
  // everywhere).
  uint32_t HashOf(const Id& id) const { return index_.HashOf(id); }

  bool Contains(const Id& id) const { return FindNode(id) != kNil; }

  // Hash-taking overload: `hash` must equal HashOf(id).
  bool Contains(const Id& id, uint32_t hash) const {
    VCDN_DCHECK(hash == index_.HashOf(id));
    return index_.Find(hash, id, IdAt()) != kNil;
  }

  // Membership of `count` ids in one call, interleaving the index probes so
  // their cache misses overlap (FlatIndex::FindMany). out[i] is nonzero iff
  // ids[i] is present; hashes[i] must equal HashOf(ids[i]).
  void ContainsMany(const Id* ids, const uint32_t* hashes, size_t count, uint8_t* out) const {
    find_scratch_.resize(count);
    index_.FindMany(hashes, ids, count, find_scratch_.data(), IdAt());
    for (size_t i = 0; i < count; ++i) {
      out[i] = find_scratch_[i] != kNil ? 1 : 0;
    }
  }

  // Returns the score of an item, or nullptr if absent.
  const Score* GetScore(const Id& id) const {
    uint32_t n = FindNode(id);
    return n == kNil ? nullptr : &nodes_[n].item.first;
  }

  // Inserts the item or moves it to a new score. Returns true if newly
  // inserted.
  bool InsertOrUpdate(const Id& id, const Score& score) {
    return InsertOrUpdate(id, score, index_.HashOf(id));
  }

  // Hash-taking overload: `hash` must equal HashOf(id).
  bool InsertOrUpdate(const Id& id, const Score& score, uint32_t hash) {
    VCDN_DCHECK(hash == index_.HashOf(id));
    uint32_t n = index_.Find(hash, id, IdAt());
    if (n != kNil) {
      nodes_[n].item.first = score;
      uint32_t pos = nodes_[n].heap_pos;
      if (!SiftUp(pos)) {
        SiftDown(pos);
      }
      return false;
    }
    n = AllocNode(Item{score, id});
    index_.Insert(hash, n);
    nodes_[n].heap_pos = static_cast<uint32_t>(heap_.size());
    heap_.push_back(n);
    SiftUp(nodes_[n].heap_pos);
    return true;
  }

  bool Erase(const Id& id) { return Erase(id, index_.HashOf(id)); }

  // Hash-taking overload: `hash` must equal HashOf(id).
  bool Erase(const Id& id, uint32_t hash) {
    VCDN_DCHECK(hash == index_.HashOf(id));
    uint32_t n = index_.Erase(hash, id, IdAt());
    if (n == kNil) {
      return false;
    }
    RemoveFromHeap(nodes_[n].heap_pos);
    FreeNode(n);
    return true;
  }

  // Best item toward the configured end. Must be non-empty.
  const Item& Top() const {
    VCDN_CHECK(!heap_.empty());
    return nodes_[heap_[0]].item;
  }

  // Removes and returns the best item. Must be non-empty.
  Item PopTop() {
    VCDN_CHECK(!heap_.empty());
    uint32_t n = heap_[0];
    // Erase from the index before moving the item out: probes compare the
    // slab id in place.
    index_.Erase(index_.HashOf(nodes_[n].item.second), nodes_[n].item.second, IdAt());
    Item item = std::move(nodes_[n].item);
    RemoveFromHeap(0);
    FreeNode(n);
    return item;
  }

  void Clear() {
    nodes_.clear();  // capacity retained
    heap_.clear();
    index_.Clear();
    free_ = kNil;
  }

  // Visits items in order from Top() outward (globally sorted toward the
  // configured end) until `fn` returns false or items run out. `fn` must not
  // mutate the heap; collect first, erase after.
  template <typename Fn>
  void ScanInOrder(Fn&& fn) const {
    if (heap_.empty()) {
      return;
    }
    scan_scratch_.clear();
    scan_scratch_.push_back(0);
    auto later = [this](uint32_t a, uint32_t b) {
      // "a comes after b": std heap ops then surface the scan-next position.
      return Before(nodes_[heap_[b]].item, nodes_[heap_[a]].item);
    };
    while (!scan_scratch_.empty()) {
      std::pop_heap(scan_scratch_.begin(), scan_scratch_.end(), later);
      uint32_t pos = scan_scratch_.back();
      scan_scratch_.pop_back();
      if (!fn(nodes_[heap_[pos]].item)) {
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

  // Allocated slab size (for tests: steady state must stop growing).
  size_t slab_size() const { return nodes_.size(); }

 private:
  struct Node {
    Item item;
    // Position in heap_ while live; next free node handle while freed.
    uint32_t heap_pos = kNil;
  };

  // Heap order toward the configured end; ties always break on id so the
  // order is total and replay-deterministic.
  bool Before(const Item& a, const Item& b) const {
    if constexpr (kMaxFirst) {
      if (a.first != b.first) {
        return b.first < a.first;
      }
      return b.second < a.second;
    } else {
      if (a.first != b.first) {
        return a.first < b.first;
      }
      return a.second < b.second;
    }
  }

  struct IdAtFn {
    const std::vector<Node>* nodes;
    const Id& operator()(uint32_t n) const { return (*nodes)[n].item.second; }
  };
  IdAtFn IdAt() const { return IdAtFn{&nodes_}; }

  uint32_t FindNode(const Id& id) const {
    return index_.Find(index_.HashOf(id), id, IdAt());
  }

  uint32_t AllocNode(Item item) {
    if (free_ != kNil) {
      uint32_t n = free_;
      free_ = nodes_[n].heap_pos;
      nodes_[n].item = std::move(item);
      return n;
    }
    VCDN_CHECK_MSG(nodes_.size() < kNil, "ScoreHeap slab limit (2^32-1 entries) exceeded");
    nodes_.push_back(Node{std::move(item), kNil});
    return static_cast<uint32_t>(nodes_.size() - 1);
  }

  void FreeNode(uint32_t n) {
    nodes_[n].heap_pos = free_;
    free_ = n;
  }

  // Standard indexed-heap removal: swap the last element in, restore order.
  void RemoveFromHeap(uint32_t pos) {
    uint32_t last = heap_.back();
    heap_.pop_back();
    if (pos < heap_.size()) {
      heap_[pos] = last;
      nodes_[last].heap_pos = pos;
      if (!SiftUp(pos)) {
        SiftDown(pos);
      }
    }
  }

  // Returns true if the element moved.
  bool SiftUp(uint32_t pos) {
    uint32_t n = heap_[pos];
    bool moved = false;
    while (pos > 0) {
      uint32_t parent = (pos - 1) / 2;
      if (!Before(nodes_[n].item, nodes_[heap_[parent]].item)) {
        break;
      }
      heap_[pos] = heap_[parent];
      nodes_[heap_[pos]].heap_pos = pos;
      pos = parent;
      moved = true;
    }
    heap_[pos] = n;
    nodes_[n].heap_pos = pos;
    return moved;
  }

  void SiftDown(uint32_t pos) {
    uint32_t n = heap_[pos];
    const size_t count = heap_.size();
    while (true) {
      size_t best = pos;
      const Item* best_item = &nodes_[n].item;
      for (size_t child = static_cast<size_t>(pos) * 2 + 1;
           child <= static_cast<size_t>(pos) * 2 + 2 && child < count; ++child) {
        if (Before(nodes_[heap_[child]].item, *best_item)) {
          best = child;
          best_item = &nodes_[heap_[child]].item;
        }
      }
      if (best == pos) {
        break;
      }
      heap_[pos] = heap_[best];
      nodes_[heap_[pos]].heap_pos = pos;
      pos = static_cast<uint32_t>(best);
    }
    heap_[pos] = n;
    nodes_[n].heap_pos = pos;
  }

  std::vector<Node> nodes_;
  std::vector<uint32_t> heap_;
  FlatIndex<Id, Hash> index_;
  uint32_t free_ = kNil;
  // Reused by ScanInOrder so steady-state scans do not allocate.
  mutable std::vector<uint32_t> scan_scratch_;
  // Reused by ContainsMany; sized to the largest batch seen, then stable.
  mutable std::vector<uint32_t> find_scratch_;
};

}  // namespace vcdn::container

#endif  // VCDN_SRC_CONTAINER_SCORE_HEAP_H_
