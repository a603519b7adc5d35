// Copyright (c) 2026 libvcdn authors. Apache-2.0 license.
//
// ChunkSetMap: video id -> set of 32-bit chunk references, the structure
// behind Cafe's unseen-chunk estimate (Sec. 6's "largest IAT among the
// video's cached chunks"). Cafe stores each cached chunk's slot handle in its
// chunk table, so the estimate reads the chunks' stats without a probe; any
// other unique per-video value (a chunk index) works the same. This was the last node-based piece of the Cafe hot path -- an
// unordered_map of unordered_sets allocates a node per cached chunk and a
// bucket array per video, which is where Cafe's residual ~0.15 allocations
// per request came from.
//
// FlatChunkSetMap stores the same relation as two slabs linked by indices:
//
//   * entries_ -- one slot per video currently holding cached chunks: the
//                 video id and the head of its chunk list;
//   * nodes_   -- one slot per cached chunk: the chunk index and the next
//                 link of its video's singly-linked list;
//   * index_   -- FlatIndex video -> entry handle (open addressing,
//                 backshift deletion).
//
// Freed entries and nodes recycle through free lists, so a warm cache
// performs zero heap allocations per request. A video's entry is dropped the
// moment its last chunk is erased (matching the "erase the set when empty"
// idiom of the node-based original).
//
// Iteration order within a video is unspecified (insertion-LIFO); consumers
// must be order-independent -- Cafe only folds a max() over the chunks'
// IATs. container_flat_differential_test checks it against an
// unordered_map of unordered_sets through seeded mixed operations.
//
// Not thread-safe; replay shards each own their instances.

#ifndef VCDN_SRC_CONTAINER_CHUNK_SET_MAP_H_
#define VCDN_SRC_CONTAINER_CHUNK_SET_MAP_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "src/container/flat_index.h"
#include "src/util/check.h"

namespace vcdn::container {

class FlatChunkSetMap {
 public:
  static constexpr uint32_t kNil = UINT32_MAX;

  // Pre-sizes for `chunks` cached chunks (the disk capacity). Every cached
  // chunk could be its own video, so the entry slab is sized the same way;
  // afterwards steady state never allocates.
  void Reserve(size_t chunks) {
    entries_.reserve(chunks);
    nodes_.reserve(chunks);
    index_.Reserve(chunks);
  }

  // Number of videos currently holding at least one chunk.
  size_t video_count() const { return index_.size(); }

  // Records `chunk` as cached for `video`. The chunk must not already be
  // present (Cafe only inserts chunks that just transitioned to cached).
  void Insert(uint64_t video, uint32_t chunk) {
    VCDN_DCHECK(!Contains(video, chunk));
    const uint32_t hash = index_.HashOf(video);
    uint32_t e = index_.Find(hash, video, VideoAt());
    if (e == kNil) {
      e = AllocEntry(video);
      index_.Insert(hash, e);
    }
    uint32_t n = AllocNode(chunk);
    nodes_[n].next = entries_[e].head;
    entries_[e].head = n;
  }

  // Removes `chunk` from `video`'s set; the video's entry is dropped when its
  // last chunk goes. The pair must be present.
  void Erase(uint64_t video, uint32_t chunk) {
    const uint32_t hash = index_.HashOf(video);
    uint32_t e = index_.Find(hash, video, VideoAt());
    VCDN_DCHECK(e != kNil);
    uint32_t* link = &entries_[e].head;
    while (nodes_[*link].chunk != chunk) {
      link = &nodes_[*link].next;
      VCDN_DCHECK(*link != kNil);
    }
    uint32_t n = *link;
    *link = nodes_[n].next;
    FreeNode(n);
    if (entries_[e].head == kNil) {
      index_.Erase(hash, video, VideoAt());
      FreeEntry(e);
    }
  }

  // Visits every chunk index cached for `video` (possibly none), in
  // unspecified order.
  template <typename Fn>
  void ForEach(uint64_t video, Fn&& fn) const {
    uint32_t e = index_.Find(index_.HashOf(video), video, VideoAt());
    if (e == kNil) {
      return;
    }
    for (uint32_t n = entries_[e].head; n != kNil; n = nodes_[n].next) {
      fn(nodes_[n].chunk);
    }
  }

  bool Contains(uint64_t video, uint32_t chunk) const {
    bool found = false;
    ForEach(video, [&](uint32_t c) { found = found || c == chunk; });
    return found;
  }

  size_t ChunkCount(uint64_t video) const {
    size_t count = 0;
    ForEach(video, [&](uint32_t) { ++count; });
    return count;
  }

  // Allocated slab sizes (for tests: steady state must stop growing).
  size_t entry_slab_size() const { return entries_.size(); }
  size_t node_slab_size() const { return nodes_.size(); }

 private:
  // `head` points at the first chunk node while live and doubles as the
  // next-free link while freed.
  struct Entry {
    uint64_t video = 0;
    uint32_t head = kNil;
  };
  // `next` links the video's chunk list while live and the free list while
  // freed.
  struct Node {
    uint32_t chunk = 0;
    uint32_t next = kNil;
  };

  struct VideoAtFn {
    const std::vector<Entry>* entries;
    uint64_t operator()(uint32_t e) const { return (*entries)[e].video; }
  };
  VideoAtFn VideoAt() const { return VideoAtFn{&entries_}; }

  uint32_t AllocEntry(uint64_t video) {
    if (entry_free_ != kNil) {
      uint32_t e = entry_free_;
      entry_free_ = entries_[e].head;
      entries_[e] = Entry{video, kNil};
      return e;
    }
    VCDN_CHECK_MSG(entries_.size() < kNil, "FlatChunkSetMap entry slab limit exceeded");
    entries_.push_back(Entry{video, kNil});
    return static_cast<uint32_t>(entries_.size() - 1);
  }

  void FreeEntry(uint32_t e) {
    entries_[e].head = entry_free_;
    entry_free_ = e;
  }

  uint32_t AllocNode(uint32_t chunk) {
    if (node_free_ != kNil) {
      uint32_t n = node_free_;
      node_free_ = nodes_[n].next;
      nodes_[n].chunk = chunk;
      return n;
    }
    VCDN_CHECK_MSG(nodes_.size() < kNil, "FlatChunkSetMap node slab limit exceeded");
    nodes_.push_back(Node{chunk, kNil});
    return static_cast<uint32_t>(nodes_.size() - 1);
  }

  void FreeNode(uint32_t n) {
    nodes_[n].next = node_free_;
    node_free_ = n;
  }

  std::vector<Entry> entries_;
  std::vector<Node> nodes_;
  FlatIndex<uint64_t> index_;  // std::hash: MixU64 finalizes identity keys
  uint32_t entry_free_ = kNil;
  uint32_t node_free_ = kNil;
};

}  // namespace vcdn::container

#endif  // VCDN_SRC_CONTAINER_CHUNK_SET_MAP_H_
