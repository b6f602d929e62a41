#include "common/flat_hash.h"

#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"

namespace copydetect {
namespace {

TEST(FlatHashMap, InsertAndFind) {
  FlatHashMap<int> map;
  EXPECT_TRUE(map.empty());
  EXPECT_EQ(map.Find(7), nullptr);
  map[7] = 42;
  map[9] = 43;
  ASSERT_NE(map.Find(7), nullptr);
  EXPECT_EQ(*map.Find(7), 42);
  EXPECT_EQ(*map.Find(9), 43);
  EXPECT_EQ(map.Find(8), nullptr);
  EXPECT_EQ(map.size(), 2u);
}

TEST(FlatHashMap, OperatorBracketDefaultConstructs) {
  FlatHashMap<double> map;
  EXPECT_EQ(map[5], 0.0);
  map[5] += 1.5;
  EXPECT_EQ(map[5], 1.5);
  EXPECT_EQ(map.size(), 1u);
}

TEST(FlatHashMap, GrowsAndKeepsEntries) {
  FlatHashMap<uint64_t> map;
  for (uint64_t i = 0; i < 10000; ++i) {
    map[i * 2654435761ULL] = i;
  }
  EXPECT_EQ(map.size(), 10000u);
  for (uint64_t i = 0; i < 10000; ++i) {
    const uint64_t* v = map.Find(i * 2654435761ULL);
    ASSERT_NE(v, nullptr) << i;
    EXPECT_EQ(*v, i);
  }
}

TEST(FlatHashMap, MatchesUnorderedMapUnderRandomOps) {
  FlatHashMap<int> map;
  std::unordered_map<uint64_t, int> reference;
  Rng rng(99);
  for (int i = 0; i < 20000; ++i) {
    uint64_t key = rng.NextBelow(5000);
    if (rng.Bernoulli(0.7)) {
      map[key] += 1;
      reference[key] += 1;
    } else {
      const int* got = map.Find(key);
      auto it = reference.find(key);
      if (it == reference.end()) {
        EXPECT_EQ(got, nullptr);
      } else {
        ASSERT_NE(got, nullptr);
        EXPECT_EQ(*got, it->second);
      }
    }
  }
  EXPECT_EQ(map.size(), reference.size());
}

TEST(FlatHashMap, ForEachVisitsAll) {
  FlatHashMap<int> map;
  for (uint64_t i = 1; i <= 100; ++i) map[i] = static_cast<int>(i);
  int sum = 0;
  map.ForEach([&sum](uint64_t key, int& v) {
    (void)key;
    sum += v;
  });
  EXPECT_EQ(sum, 5050);
}

TEST(FlatHashMap, ClearEmpties) {
  FlatHashMap<int> map;
  map[1] = 1;
  map.Clear();
  EXPECT_EQ(map.size(), 0u);
  EXPECT_EQ(map.Find(1), nullptr);
}

TEST(FlatHashMap, ReserveAvoidsInvalidation) {
  FlatHashMap<int> map;
  map.Reserve(1000);
  map[1] = 11;
  int* p = map.Find(1);
  for (uint64_t i = 2; i < 700; ++i) map[i] = 0;
  // With capacity reserved up-front, no rehash happened.
  EXPECT_EQ(p, map.Find(1));
}

TEST(FlatHashMap, InsertReportsFreshOncePerKeyAndKeepsValuesAcrossRehash) {
  FlatHashMap<uint64_t> map;
  // 5000 keys walk the table through nine doublings; the second pass
  // finds every key with the value its first Insert stored.
  for (int pass = 0; pass < 2; ++pass) {
    for (uint64_t i = 0; i < 5000; ++i) {
      auto [value, fresh] = map.Insert(i * 2654435761ULL);
      ASSERT_NE(value, nullptr);
      EXPECT_EQ(fresh, pass == 0) << "pass " << pass << " key " << i;
      if (fresh) {
        EXPECT_EQ(*value, 0u);
        *value = i;
      } else {
        EXPECT_EQ(*value, i);
      }
    }
    EXPECT_EQ(map.size(), 5000u);
  }
}

TEST(FlatHashMap, InsertFillsTheTableLikeOperatorBracket) {
  // Same key sequence, repeats included: both maps must grow at the
  // same moments and so walk ForEach in the same storage order, which
  // is what the scans' finalize order rests on.
  FlatHashMap<int> by_insert;
  FlatHashMap<int> by_bracket;
  Rng rng(5);
  for (int i = 0; i < 20000; ++i) {
    uint64_t key = rng.NextBelow(6000);
    ++*by_insert.Insert(key).first;
    ++by_bracket[key];
  }
  std::vector<std::pair<uint64_t, int>> inserted;
  std::vector<std::pair<uint64_t, int>> bracketed;
  by_insert.ForEach([&inserted](uint64_t key, int& v) {
    inserted.emplace_back(key, v);
  });
  by_bracket.ForEach([&bracketed](uint64_t key, int& v) {
    bracketed.emplace_back(key, v);
  });
  EXPECT_EQ(by_insert.raw_keys().size(), by_bracket.raw_keys().size());
  EXPECT_EQ(inserted, bracketed);
}

TEST(FlatHashSet, InsertContains) {
  FlatHashSet set;
  EXPECT_TRUE(set.Insert(5));
  EXPECT_FALSE(set.Insert(5));
  EXPECT_TRUE(set.Contains(5));
  EXPECT_FALSE(set.Contains(6));
  EXPECT_EQ(set.size(), 1u);
}

TEST(FlatHashSet, MatchesUnorderedSet) {
  FlatHashSet set;
  std::unordered_set<uint64_t> reference;
  Rng rng(101);
  for (int i = 0; i < 20000; ++i) {
    uint64_t key = rng.NextBelow(3000);
    EXPECT_EQ(set.Insert(key), reference.insert(key).second);
  }
  EXPECT_EQ(set.size(), reference.size());
  for (uint64_t key : reference) EXPECT_TRUE(set.Contains(key));
}

TEST(Mix64, DistinctForSequentialKeys) {
  std::unordered_set<uint64_t> seen;
  for (uint64_t i = 0; i < 10000; ++i) {
    EXPECT_TRUE(seen.insert(Mix64(i)).second);
  }
}

TEST(HashCombine, OrderSensitive) {
  EXPECT_NE(HashCombine(HashCombine(0, 1), 2),
            HashCombine(HashCombine(0, 2), 1));
}

}  // namespace
}  // namespace copydetect
