// Copyright (c) 2026 libvcdn authors. Apache-2.0 license.

#include "tests/lru_map_oracle.h"

#include <gtest/gtest.h>

#include <string>

namespace vcdn::oracle {
namespace {

TEST(LruMapTest, InsertAndLookup) {
  LruMap<int, std::string> map;
  EXPECT_TRUE(map.empty());
  EXPECT_TRUE(map.InsertOrTouch(1, "a"));
  EXPECT_FALSE(map.InsertOrTouch(1, "b"));  // overwrite, not new
  EXPECT_EQ(map.size(), 1u);
  ASSERT_NE(map.Peek(1), nullptr);
  EXPECT_EQ(*map.Peek(1), "b");
  EXPECT_EQ(map.Peek(2), nullptr);
}

TEST(LruMapTest, OldestIsLeastRecent) {
  LruMap<int, int> map;
  map.InsertOrTouch(1, 10);
  map.InsertOrTouch(2, 20);
  map.InsertOrTouch(3, 30);
  EXPECT_EQ(map.Oldest().key, 1);
  EXPECT_EQ(map.Newest().key, 3);
}

TEST(LruMapTest, TouchMovesToFront) {
  LruMap<int, int> map;
  map.InsertOrTouch(1, 10);
  map.InsertOrTouch(2, 20);
  map.InsertOrTouch(3, 30);
  ASSERT_NE(map.GetAndTouch(1), nullptr);
  EXPECT_EQ(map.Oldest().key, 2);
  EXPECT_EQ(map.Newest().key, 1);
}

TEST(LruMapTest, PeekDoesNotReorder) {
  LruMap<int, int> map;
  map.InsertOrTouch(1, 10);
  map.InsertOrTouch(2, 20);
  (void)map.Peek(1);
  EXPECT_EQ(map.Oldest().key, 1);
}

TEST(LruMapTest, PopOldestEvictionOrder) {
  LruMap<int, int> map;
  for (int i = 0; i < 5; ++i) {
    map.InsertOrTouch(i, i);
  }
  map.GetAndTouch(0);  // 0 becomes most recent
  EXPECT_EQ(map.PopOldest().key, 1);
  EXPECT_EQ(map.PopOldest().key, 2);
  EXPECT_EQ(map.size(), 3u);
  EXPECT_FALSE(map.Contains(1));
}

TEST(LruMapTest, EraseSpecificKey) {
  LruMap<int, int> map;
  map.InsertOrTouch(1, 10);
  map.InsertOrTouch(2, 20);
  EXPECT_TRUE(map.Erase(1));
  EXPECT_FALSE(map.Erase(1));
  EXPECT_EQ(map.size(), 1u);
  EXPECT_EQ(map.Oldest().key, 2);
}

TEST(LruMapTest, ClearEmpties) {
  LruMap<int, int> map;
  map.InsertOrTouch(1, 1);
  map.Clear();
  EXPECT_TRUE(map.empty());
  EXPECT_FALSE(map.Contains(1));
}

TEST(LruMapTest, IterationIsMostRecentFirst) {
  LruMap<int, int> map;
  map.InsertOrTouch(1, 1);
  map.InsertOrTouch(2, 2);
  map.InsertOrTouch(3, 3);
  std::vector<int> keys;
  for (const auto& entry : map) {
    keys.push_back(entry.key);
  }
  EXPECT_EQ(keys, (std::vector<int>{3, 2, 1}));
}

// Property: after any interleaving of operations, PopOldest returns entries
// in exactly the order of their last touch.
TEST(LruMapTest, PropertyEvictionMatchesTouchOrder) {
  LruMap<int, int> map;
  std::vector<int> touch_order;
  auto touch = [&](int k) {
    map.InsertOrTouch(k, k);
    touch_order.erase(std::remove(touch_order.begin(), touch_order.end(), k), touch_order.end());
    touch_order.push_back(k);
  };
  for (int round = 0; round < 3; ++round) {
    for (int k = 0; k < 20; ++k) {
      touch((k * 7 + round * 3) % 13);
    }
  }
  std::vector<int> evicted;
  while (!map.empty()) {
    evicted.push_back(map.PopOldest().key);
  }
  EXPECT_EQ(evicted, touch_order);
}

}  // namespace
}  // namespace vcdn::oracle
