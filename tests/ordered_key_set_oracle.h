// Copyright (c) 2026 libvcdn authors. Apache-2.0 license.
//
// OrderedKeySet: the test oracle for ScoreHeap. The "binary tree set plus
// hash map" structure of Section 6 of the paper, spelled the obvious way
// (std::set of (score, id) + std::unordered_map id -> score): a set of items,
// each with a totally ordered score, ties broken by id.
//
// Carries only the API the container tests call:
// container_ordered_key_set_test pins its behavior directly, and
// container_flat_differential_test drives it side by side with both
// ScoreHeap directions (min-first = begin(), max-first = rbegin()).

#ifndef VCDN_TESTS_ORDERED_KEY_SET_ORACLE_H_
#define VCDN_TESTS_ORDERED_KEY_SET_ORACLE_H_

#include <cstddef>
#include <iterator>
#include <set>
#include <unordered_map>
#include <utility>

#include "src/util/check.h"

namespace vcdn::oracle {

template <typename Id, typename Score>
class OrderedKeySet {
 public:
  using Item = std::pair<Score, Id>;  // ordered by score, then id

  size_t size() const { return score_by_id_.size(); }
  bool empty() const { return score_by_id_.empty(); }

  bool Contains(const Id& id) const { return score_by_id_.count(id) > 0; }

  // Returns the score of an item, or nullptr if absent.
  const Score* GetScore(const Id& id) const {
    auto it = score_by_id_.find(id);
    return it == score_by_id_.end() ? nullptr : &it->second;
  }

  // Inserts the item or moves it to a new score. Returns true if newly
  // inserted.
  bool InsertOrUpdate(const Id& id, const Score& score) {
    auto it = score_by_id_.find(id);
    if (it != score_by_id_.end()) {
      ordered_.erase(Item{it->second, id});
      it->second = score;
      ordered_.insert(Item{score, id});
      return false;
    }
    score_by_id_.emplace(id, score);
    ordered_.insert(Item{score, id});
    return true;
  }

  bool Erase(const Id& id) {
    auto it = score_by_id_.find(id);
    if (it == score_by_id_.end()) {
      return false;
    }
    ordered_.erase(Item{it->second, id});
    score_by_id_.erase(it);
    return true;
  }

  // Least-score item. Must be non-empty.
  const Item& Min() const {
    VCDN_CHECK(!ordered_.empty());
    return *ordered_.begin();
  }

  // Greatest-score item. Must be non-empty.
  const Item& Max() const {
    VCDN_CHECK(!ordered_.empty());
    return *ordered_.rbegin();
  }

  // Removes and returns the least-score item. Must be non-empty.
  Item PopMin() {
    VCDN_CHECK(!ordered_.empty());
    return PopAt(ordered_.begin());
  }

  // Removes and returns the greatest-score item. Must be non-empty.
  Item PopMax() {
    VCDN_CHECK(!ordered_.empty());
    return PopAt(std::prev(ordered_.end()));
  }

  void Clear() {
    ordered_.clear();
    score_by_id_.clear();
  }

  // In-order traversal: ascending from begin(), descending from rbegin().
  auto begin() const { return ordered_.cbegin(); }
  auto end() const { return ordered_.cend(); }
  auto rbegin() const { return ordered_.crbegin(); }
  auto rend() const { return ordered_.crend(); }

 private:
  Item PopAt(typename std::set<Item>::const_iterator it) {
    Item item = *it;
    ordered_.erase(it);
    score_by_id_.erase(item.second);
    return item;
  }

  std::set<Item> ordered_;
  std::unordered_map<Id, Score> score_by_id_;
};

}  // namespace vcdn::oracle

#endif  // VCDN_TESTS_ORDERED_KEY_SET_ORACLE_H_
