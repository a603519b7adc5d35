// Copyright (c) 2026 libvcdn authors. Apache-2.0 license.
//
// ScoreHeap: the flat successor of the node-based OrderedKeySet (which
// survives as the test oracle in tests/ordered_key_set_oracle.h).
//
// Section 6's "binary tree set plus hash map" kept Cafe's virtual timestamps
// in a red-black std::set -- one node allocation and a pointer-chasing
// rebalance per update. Every algorithm in this repo only ever consumes the
// ordering from ONE end (FillLFU evicts the least-score chunk,
// Psychic/Belady the greatest), so the total order can be relaxed to an
// indexed binary heap over one contiguous slab:
//
//   * nodes_   -- slab of (id, heap position); erased nodes recycle through a
//                 free list, zero allocations in steady state;
//   * heap_    -- IndexedHeap of inline (score, node handle) entries, ordered
//                 by (score, id) toward the configured end (the same core
//                 orders Cafe's chunk table, see src/core/cafe_cache.h);
//   * index_   -- FlatIndex id -> handle (open addressing, backshift).
//
// Update/Erase are O(log n) sift operations from the node's recorded heap
// position; Top is O(1). Tie-breaking is deterministic and identical to an
// ordered set of (score, id), so eviction victim order -- and therefore
// every replay total -- does not depend on the container. ScanInOrder
// visits items in that order from Top() outward without allocating.
//
// Not thread-safe (ScanInOrder reuses mutable scratch); replay shards each
// own their instances.

#ifndef VCDN_SRC_CONTAINER_SCORE_HEAP_H_
#define VCDN_SRC_CONTAINER_SCORE_HEAP_H_

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "src/container/flat_index.h"
#include "src/container/indexed_heap.h"
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
    heap_.Reserve(capacity);
    index_.Reserve(capacity);
  }

  size_t size() const { return heap_.size(); }
  bool empty() const { return heap_.empty(); }

  bool Contains(const Id& id) const { return FindNode(id) != kNil; }

  // Returns the score of an item, or nullptr if absent.
  const Score* GetScore(const Id& id) const {
    uint32_t n = FindNode(id);
    return n == kNil ? nullptr : &heap_.At(nodes_[n].heap_pos).score;
  }

  // Inserts the item or moves it to a new score. Returns true if newly
  // inserted.
  bool InsertOrUpdate(const Id& id, const Score& score) {
    const uint32_t hash = index_.HashOf(id);
    uint32_t n = index_.Find(hash, id, IdAt());
    if (n != kNil) {
      heap_.Update(nodes_[n].heap_pos, score, Slots());
      return false;
    }
    n = AllocNode(id);
    index_.Insert(hash, n);
    heap_.Push(score, n, Slots());
    return true;
  }

  bool Erase(const Id& id) {
    uint32_t n = index_.Erase(index_.HashOf(id), id, IdAt());
    if (n == kNil) {
      return false;
    }
    heap_.Remove(nodes_[n].heap_pos, Slots());
    FreeNode(n);
    return true;
  }

  // Best item toward the configured end. Must be non-empty.
  Item Top() const {
    const auto& top = heap_.Top();
    return Item{top.score, nodes_[top.handle].id};
  }

  // Removes and returns the best item. Must be non-empty.
  Item PopTop() {
    Item item = Top();
    const uint32_t n = heap_.Top().handle;
    index_.Erase(index_.HashOf(item.second), item.second, IdAt());
    heap_.Remove(0, Slots());
    FreeNode(n);
    return item;
  }

  void Clear() {
    nodes_.clear();  // capacity retained
    heap_.Clear();
    index_.Clear();
    free_ = kNil;
  }

  // Visits items in order from Top() outward (globally sorted toward the
  // configured end) until `fn` returns false or items run out. `fn` must not
  // mutate the heap; collect first, erase after.
  template <typename Fn>
  void ScanInOrder(Fn&& fn) const {
    heap_.ScanInOrder(Slots(), [&](const auto& entry) {
      return fn(Item{entry.score, nodes_[entry.handle].id});
    });
  }

  // Allocated slab size (for tests: steady state must stop growing).
  size_t slab_size() const { return nodes_.size(); }

 private:
  struct Node {
    Id id;
    // Position in heap_ while live; next free node handle while freed.
    uint32_t heap_pos = kNil;
  };

  // IndexedHeap's view of the slab: id tie-breaks, and position bookkeeping
  // for the mutating calls (a const view serves scans).
  template <typename Nodes>
  struct SlotsFn {
    Nodes* nodes;
    void SetPos(uint32_t n, uint32_t pos) const { (*nodes)[n].heap_pos = pos; }
    bool IdLess(uint32_t a, uint32_t b) const { return (*nodes)[a].id < (*nodes)[b].id; }
  };
  SlotsFn<std::vector<Node>> Slots() { return {&nodes_}; }
  SlotsFn<const std::vector<Node>> Slots() const { return {&nodes_}; }

  struct IdAtFn {
    const std::vector<Node>* nodes;
    const Id& operator()(uint32_t n) const { return (*nodes)[n].id; }
  };
  IdAtFn IdAt() const { return IdAtFn{&nodes_}; }

  uint32_t FindNode(const Id& id) const {
    return index_.Find(index_.HashOf(id), id, IdAt());
  }

  uint32_t AllocNode(const Id& id) {
    if (free_ != kNil) {
      uint32_t n = free_;
      free_ = nodes_[n].heap_pos;
      nodes_[n].id = id;
      return n;
    }
    VCDN_CHECK_MSG(nodes_.size() < kNil, "ScoreHeap slab limit (2^32-1 entries) exceeded");
    nodes_.push_back(Node{id, kNil});
    return static_cast<uint32_t>(nodes_.size() - 1);
  }

  void FreeNode(uint32_t n) {
    nodes_[n].heap_pos = free_;
    free_ = n;
  }

  std::vector<Node> nodes_;
  IndexedHeap<Score, kMaxFirst> heap_;
  FlatIndex<Id, Hash> index_;
  uint32_t free_ = kNil;
};

}  // namespace vcdn::container

#endif  // VCDN_SRC_CONTAINER_SCORE_HEAP_H_
