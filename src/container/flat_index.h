// Copyright (c) 2026 libvcdn authors. Apache-2.0 license.
//
// FlatIndex: the open-addressing core shared by the flat containers and
// Cafe's chunk table.
//
// Maps Key -> uint32_t handle (a slot in the caller's slab). The table stores
// only (hash, handle) pairs -- 8 bytes per bucket, one contiguous array -- so
// a probe run is a linear scan of one cache line or two; key bytes stay in
// the caller's slab and are compared through a KeyAt callback only when the
// 32-bit hash tags match.
//
// Collision policy: linear probing with backshift deletion (tombstone-free).
// Erasing compacts the probe run in place, so lookups never scan dead
// buckets and the table needs no periodic rehash to stay fast. Growth
// doubles the bucket array and reinserts from the stored hashes alone (no
// key access). Load factor is capped at 3/4.
//
// All user-provided Hash output is finalized through MixU64, so identity
// hashes (libstdc++ std::hash<uint64_t>) are safe to use with dense keys.

#ifndef VCDN_SRC_CONTAINER_FLAT_INDEX_H_
#define VCDN_SRC_CONTAINER_FLAT_INDEX_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "src/container/fast_hash.h"
#include "src/util/check.h"

namespace vcdn::container {

template <typename Key, typename Hash = std::hash<Key>>
class FlatIndex {
 public:
  static constexpr uint32_t kNil = UINT32_MAX;

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  // Mixed 32-bit hash of a key; pass the same value to Find/Insert/Erase so
  // the key is hashed once per operation.
  uint32_t HashOf(const Key& key) const {
    return static_cast<uint32_t>(MixU64(static_cast<uint64_t>(Hash{}(key))));
  }

  // Sizes the table for `n` entries without rehash-triggered growth.
  void Reserve(size_t n) {
    size_t want = NextPow2(n * 4 / 3 + 1);
    if (want > buckets_.size()) {
      Rehash(want);
    }
  }

  void Clear() {
    for (Bucket& b : buckets_) {
      b.handle = kNil;
    }
    size_ = 0;
  }

  // Returns the handle stored for `key`, or kNil. `key_at(handle)` must
  // return (something comparable to) the key stored in the caller's slab.
  template <typename KeyAt>
  uint32_t Find(uint32_t hash, const Key& key, const KeyAt& key_at) const {
    if (buckets_.empty()) {
      return kNil;
    }
    size_t i = hash & mask_;
    while (true) {
      const Bucket& b = buckets_[i];
      if (b.handle == kNil) {
        return kNil;
      }
      if (b.hash == hash && key_at(b.handle) == key) {
        return b.handle;
      }
      i = (i + 1) & mask_;
    }
  }

  // Inserts a (hash, handle) pair. The key must not already be present
  // (callers Find first); duplicates would shadow each other.
  void Insert(uint32_t hash, uint32_t handle) {
    if ((size_ + 1) * 4 > buckets_.size() * 3) {
      Rehash(buckets_.empty() ? kMinBuckets : buckets_.size() * 2);
    }
    Place(hash, handle);
    ++size_;
  }

  // Removes the entry for `key`, backshifting the probe run. Returns the
  // erased handle, or kNil if the key was absent.
  template <typename KeyAt>
  uint32_t Erase(uint32_t hash, const Key& key, const KeyAt& key_at) {
    if (buckets_.empty()) {
      return kNil;
    }
    size_t i = hash & mask_;
    while (true) {
      Bucket& b = buckets_[i];
      if (b.handle == kNil) {
        return kNil;
      }
      if (b.hash == hash && key_at(b.handle) == key) {
        break;
      }
      i = (i + 1) & mask_;
    }
    uint32_t erased = buckets_[i].handle;
    // Backshift: pull every displaced entry of the run one step toward its
    // home bucket, then clear the final vacancy.
    size_t j = i;
    while (true) {
      j = (j + 1) & mask_;
      if (buckets_[j].handle == kNil) {
        break;
      }
      size_t home = buckets_[j].hash & mask_;
      if (((j - home) & mask_) >= ((j - i) & mask_)) {
        buckets_[i] = buckets_[j];
        i = j;
      }
    }
    buckets_[i].handle = kNil;
    --size_;
    return erased;
  }

  // Number of buckets currently allocated (for tests / load inspection).
  size_t bucket_count() const { return buckets_.size(); }

 private:
  static constexpr size_t kMinBuckets = 16;

  struct Bucket {
    uint32_t hash = 0;
    uint32_t handle = kNil;
  };

  static size_t NextPow2(size_t n) {
    size_t p = kMinBuckets;
    while (p < n) {
      p <<= 1;
    }
    return p;
  }

  void Place(uint32_t hash, uint32_t handle) {
    size_t i = hash & mask_;
    while (buckets_[i].handle != kNil) {
      i = (i + 1) & mask_;
    }
    buckets_[i] = Bucket{hash, handle};
  }

  void Rehash(size_t new_buckets) {
    VCDN_DCHECK((new_buckets & (new_buckets - 1)) == 0);
    std::vector<Bucket> old = std::move(buckets_);
    buckets_.assign(new_buckets, Bucket{});
    mask_ = new_buckets - 1;
    for (const Bucket& b : old) {
      if (b.handle != kNil) {
        Place(b.hash, b.handle);
      }
    }
  }

  std::vector<Bucket> buckets_;
  size_t mask_ = 0;
  size_t size_ = 0;
};

}  // namespace vcdn::container

#endif  // VCDN_SRC_CONTAINER_FLAT_INDEX_H_
