// The scans' one pair partition (core/sharded_scan.h): OwnsRow gives
// each pair to exactly one shard by its smaller source, and
// ShardPairReservation sizes a shard's pair table once per round.
// tests/parallel_equivalence_test.cc holds the scans that use them to
// the sequential run bit for bit.
#include <algorithm>
#include <span>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/flat_hash.h"
#include "core/inverted_index.h"
#include "core/sharded_scan.h"
#include "eval/experiment.h"
#include "test_util.h"

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

// ---------------------------------------------------------------------
// ShardPairReservation: the once-per-round pair-table sizing.

/// The distinct pairs scan shard `shard` of `num_shards` creates from
/// the entries at ranks [0, creating_end), counted by brute force.
size_t CountShardPairs(const InvertedIndex& index, size_t creating_end,
                       size_t shard, size_t num_shards) {
  FlatHashSet pairs;
  for (size_t rank = 0; rank < creating_end; ++rank) {
    std::span<const SourceId> providers = index.providers(rank);
    for (size_t i = 0; i < providers.size(); ++i) {
      for (size_t j = i + 1; j < providers.size(); ++j) {
        const SourceId lo = std::min(providers[i], providers[j]);
        if (OwnsRow(lo, shard, num_shards)) {
          pairs.Insert(PairKey(providers[i], providers[j]));
        }
      }
    }
  }
  return pairs.size();
}

TEST(ShardPairReservation, BoundCoversEveryShardsPairs) {
  const std::pair<const char*, double> worlds[] = {
      {"book-full", 0.05}, {"stock-1day", 0.1}, {"book-cs", 0.1}};
  for (const auto& [name, scale] : worlds) {
    auto world = MakeWorldByName(name, scale, 7);
    ASSERT_TRUE(world.ok()) << world.status().ToString();
    testutil::WorldInput wi(*world);
    DetectionParams params;
    params.n = world->suggested_n;
    auto index = InvertedIndex::Build(wi.Input(*world), params);
    ASSERT_TRUE(index.ok()) << index.status().ToString();
    ASSERT_LT(index->tail_begin(), index->num_entries()) << name;
    // INDEX and the tail-respecting bounded scans create pairs from
    // the head only; the others from every entry.
    for (size_t creating_end : {index->tail_begin(), index->num_entries()}) {
      for (size_t num_shards : {1, 2, 3, 4, 7}) {
        for (size_t shard = 0; shard < num_shards; ++shard) {
          const size_t pairs =
              CountShardPairs(*index, creating_end, shard, num_shards);
          const size_t reserved = ShardPairReservation(
              *index, creating_end, shard, num_shards);
          // The reservation is 3/4 of the bound, rounded down, so the
          // bound is at most reserved * 4 / 3 + 1.
          EXPECT_LE(pairs, reserved * 4 / 3 + 1)
              << name << " " << scale << ", entries [0, " << creating_end
              << "), shard " << shard << " of " << num_shards;
        }
      }
    }
  }
}

}  // namespace
}  // namespace copydetect
