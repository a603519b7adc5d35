// Copyright (c) 2026 libvcdn authors. Apache-2.0 license.

#include "tests/ordered_key_set_oracle.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "src/util/rng.h"

namespace vcdn::oracle {
namespace {

TEST(OrderedKeySetTest, InsertAndMin) {
  OrderedKeySet<int, double> set;
  EXPECT_TRUE(set.InsertOrUpdate(1, 5.0));
  EXPECT_TRUE(set.InsertOrUpdate(2, 3.0));
  EXPECT_TRUE(set.InsertOrUpdate(3, 7.0));
  EXPECT_EQ(set.size(), 3u);
  EXPECT_EQ(set.Min().second, 2);
  EXPECT_EQ(set.Max().second, 3);
}

TEST(OrderedKeySetTest, UpdateMovesItem) {
  OrderedKeySet<int, double> set;
  set.InsertOrUpdate(1, 5.0);
  set.InsertOrUpdate(2, 3.0);
  EXPECT_FALSE(set.InsertOrUpdate(2, 9.0));  // update, not insert
  EXPECT_EQ(set.Min().second, 1);
  ASSERT_NE(set.GetScore(2), nullptr);
  EXPECT_DOUBLE_EQ(*set.GetScore(2), 9.0);
}

TEST(OrderedKeySetTest, PopMinAscending) {
  OrderedKeySet<int, double> set;
  set.InsertOrUpdate(1, 2.0);
  set.InsertOrUpdate(2, 1.0);
  set.InsertOrUpdate(3, 3.0);
  EXPECT_EQ(set.PopMin().second, 2);
  EXPECT_EQ(set.PopMin().second, 1);
  EXPECT_EQ(set.PopMin().second, 3);
  EXPECT_TRUE(set.empty());
}

TEST(OrderedKeySetTest, PopMaxDescending) {
  OrderedKeySet<int, double> set;
  set.InsertOrUpdate(1, 2.0);
  set.InsertOrUpdate(2, 1.0);
  set.InsertOrUpdate(3, 3.0);
  EXPECT_EQ(set.PopMax().second, 3);
  EXPECT_EQ(set.PopMax().second, 1);
  EXPECT_EQ(set.PopMax().second, 2);
}

TEST(OrderedKeySetTest, EraseById) {
  OrderedKeySet<int, double> set;
  set.InsertOrUpdate(1, 1.0);
  set.InsertOrUpdate(2, 2.0);
  EXPECT_TRUE(set.Erase(1));
  EXPECT_FALSE(set.Erase(1));
  EXPECT_FALSE(set.Contains(1));
  EXPECT_EQ(set.Min().second, 2);
}

TEST(OrderedKeySetTest, TiesBrokenById) {
  OrderedKeySet<int, double> set;
  set.InsertOrUpdate(5, 1.0);
  set.InsertOrUpdate(3, 1.0);
  set.InsertOrUpdate(4, 1.0);
  EXPECT_EQ(set.PopMin().second, 3);
  EXPECT_EQ(set.PopMin().second, 4);
  EXPECT_EQ(set.PopMin().second, 5);
}

TEST(OrderedKeySetTest, InOrderTraversal) {
  OrderedKeySet<int, double> set;
  set.InsertOrUpdate(1, 30.0);
  set.InsertOrUpdate(2, 10.0);
  set.InsertOrUpdate(3, 20.0);
  std::vector<int> ids;
  for (const auto& [score, id] : set) {
    ids.push_back(id);
  }
  EXPECT_EQ(ids, (std::vector<int>{2, 3, 1}));
}

// Property: under random insert/update/erase churn, Min always returns the
// smallest live (score, id) pair.
TEST(OrderedKeySetTest, PropertyMinMatchesBruteForce) {
  OrderedKeySet<int, double> set;
  std::vector<std::pair<double, int>> mirror;  // (score, id)
  util::Pcg32 rng(77);
  for (int op = 0; op < 5000; ++op) {
    int id = static_cast<int>(rng.NextBounded(100));
    double score = static_cast<double>(rng.NextBounded(1000));
    auto it = std::find_if(mirror.begin(), mirror.end(),
                           [&](const auto& p) { return p.second == id; });
    if (rng.NextBool(0.2) && it != mirror.end()) {
      set.Erase(id);
      mirror.erase(it);
    } else {
      set.InsertOrUpdate(id, score);
      if (it != mirror.end()) {
        it->first = score;
      } else {
        mirror.emplace_back(score, id);
      }
    }
    ASSERT_EQ(set.size(), mirror.size());
    if (!mirror.empty()) {
      auto min = *std::min_element(mirror.begin(), mirror.end());
      ASSERT_EQ(set.Min().second, min.second);
      ASSERT_DOUBLE_EQ(set.Min().first, min.first);
      auto max = *std::max_element(mirror.begin(), mirror.end());
      ASSERT_EQ(set.Max().second, max.second);
    }
  }
}

}  // namespace
}  // namespace vcdn::oracle
