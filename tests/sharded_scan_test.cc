// The scans' one pair partition (core/sharded_scan.h): OwnsRow gives
// each pair to exactly one shard by its smaller source.
// tests/parallel_equivalence_test.cc holds the scans that use it to the
// sequential run bit for bit.
#include <vector>

#include <gtest/gtest.h>

#include "core/sharded_scan.h"

namespace copydetect {
namespace {

// ---------------------------------------------------------------------
// OwnsRow: the row partition itself.

TEST(OwnsRow, EveryKeyOwnedByExactlyOneShard) {
  for (size_t num_shards : {1, 2, 4, 7}) {
    for (SourceId a = 0; a < 40; ++a) {
      for (SourceId b = a + 1; b < 40; ++b) {
        size_t owners = 0;
        for (size_t shard = 0; shard < num_shards; ++shard) {
          if (OwnsRow(PairFirst(PairKey(a, b)), shard, num_shards)) {
            ++owners;
          }
        }
        EXPECT_EQ(owners, 1u)
            << "pair " << a << "," << b << " at " << num_shards
            << " shards";
      }
    }
  }
}

TEST(OwnsRow, RoughlyBalancedPartition) {
  for (size_t num_shards : {1, 2, 4, 7}) {
    std::vector<size_t> owned(num_shards, 0);
    size_t total = 0;
    for (SourceId a = 0; a < 80; ++a) {
      for (SourceId b = a + 1; b < 80; ++b) {
        for (size_t shard = 0; shard < num_shards; ++shard) {
          if (OwnsRow(a, shard, num_shards)) ++owned[shard];
        }
        ++total;
      }
    }
    for (size_t shard = 0; shard < num_shards; ++shard) {
      EXPECT_GT(owned[shard], total / num_shards / 2)
          << "shard " << shard << " of " << num_shards;
      EXPECT_LT(owned[shard], total / num_shards * 2)
          << "shard " << shard << " of " << num_shards;
    }
  }
}

}  // namespace
}  // namespace copydetect
