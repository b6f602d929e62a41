#include "core/inverted_index.h"

#include <algorithm>
#include <cstring>
#include <limits>
#include <map>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "simjoin/overlap.h"
#include "test_util.h"

namespace copydetect {
namespace {

using testutil::ExampleFixture;
using testutil::PaperParams;

std::string EntryName(const InvertedIndex& index, size_t rank) {
  const Dataset& data = index.data();
  SlotId slot = index.entry(rank).slot;
  return std::string(data.item_name(data.slot_item(slot))) + "." +
         std::string(data.slot_value(slot));
}

TEST(InvertedIndex, TableIIIEntrySetAndOrder) {
  ExampleFixture fx;
  auto index_or = InvertedIndex::Build(fx.Input(), PaperParams());
  ASSERT_TRUE(index_or.ok()) << index_or.status().ToString();
  const InvertedIndex& index = *index_or;

  // Table III has exactly 13 entries; single-provider values
  // (NJ.Union, AZ.Tucson, TX.Arlington) are not indexed.
  ASSERT_EQ(index.num_entries(), 13u);

  // Top entries in the paper's order (ties on identical scores aside).
  EXPECT_EQ(EntryName(index, 0), "AZ.Tempe");
  EXPECT_EQ(EntryName(index, 1), "NJ.Atlantic");
  // Ranks 2-3: TX.Houston and NY.NewYork both score 4.05.
  std::string r2 = EntryName(index, 2);
  std::string r3 = EntryName(index, 3);
  EXPECT_TRUE((r2 == "TX.Houston" && r3 == "NY.NewYork") ||
              (r2 == "NY.NewYork" && r3 == "TX.Houston"));
  EXPECT_EQ(EntryName(index, 4), "TX.Dallas");
  EXPECT_EQ(EntryName(index, 5), "NY.Buffalo");
  EXPECT_EQ(EntryName(index, 6), "FL.PalmBay");
  EXPECT_EQ(EntryName(index, 7), "FL.Miami");
  EXPECT_EQ(EntryName(index, 8), "AZ.Phoenix");
  EXPECT_EQ(EntryName(index, 9), "NJ.Trenton");
  EXPECT_EQ(EntryName(index, 10), "FL.Orlando");
  // Last two: NY.Albany and TX.Austin, both .43.
  std::string r11 = EntryName(index, 11);
  std::string r12 = EntryName(index, 12);
  EXPECT_TRUE((r11 == "NY.Albany" && r12 == "TX.Austin") ||
              (r11 == "TX.Austin" && r12 == "NY.Albany"));
}

TEST(InvertedIndex, TableIIIScores) {
  ExampleFixture fx;
  auto index_or = InvertedIndex::Build(fx.Input(), PaperParams());
  ASSERT_TRUE(index_or.ok());
  const InvertedIndex& index = *index_or;

  std::map<std::string, double> expected = {
      {"AZ.Tempe", 4.59},   {"NJ.Atlantic", 4.12}, {"TX.Houston", 4.05},
      {"NY.NewYork", 4.05}, {"TX.Dallas", 3.98},   {"NY.Buffalo", 3.97},
      {"FL.PalmBay", 3.97}, {"FL.Miami", 3.83},    {"AZ.Phoenix", 1.62},
      {"NJ.Trenton", 1.51}, {"FL.Orlando", 0.84},  {"NY.Albany", 0.43},
      {"TX.Austin", 0.43},
  };
  // The paper's table rounds its probabilities to two digits, so allow
  // a matching slack on the scores.
  for (size_t rank = 0; rank < index.num_entries(); ++rank) {
    std::string name = EntryName(index, rank);
    ASSERT_TRUE(expected.count(name)) << name;
    EXPECT_NEAR(index.entry(rank).score, expected[name], 0.03) << name;
  }
}

TEST(InvertedIndex, TailIsLastTwoEntries) {
  // Ex. 3.6: the last two entries (.43 + .43 < ln(.8/.2) = 1.39) form
  // the tail set E̅.
  ExampleFixture fx;
  auto index_or = InvertedIndex::Build(fx.Input(), PaperParams());
  ASSERT_TRUE(index_or.ok());
  EXPECT_EQ(index_or->tail_begin(), 11u);
}

TEST(InvertedIndex, ScoresDecreaseUnderContributionOrdering) {
  testutil::World world = testutil::SmallWorld(3);
  testutil::WorldInput wi(world);
  auto index_or = InvertedIndex::Build(wi.Input(world), PaperParams());
  ASSERT_TRUE(index_or.ok());
  const InvertedIndex& index = *index_or;
  for (size_t rank = 1; rank < index.num_entries(); ++rank) {
    EXPECT_GE(index.entry(rank - 1).score, index.entry(rank).score);
  }
}

TEST(InvertedIndex, EveryEntryHasAtLeastTwoProviders) {
  testutil::World world = testutil::SmallWorld(4);
  testutil::WorldInput wi(world);
  auto index_or = InvertedIndex::Build(wi.Input(world), PaperParams());
  ASSERT_TRUE(index_or.ok());
  for (size_t rank = 0; rank < index_or->num_entries(); ++rank) {
    EXPECT_GE(index_or->providers(rank).size(), 2u);
  }
}

TEST(InvertedIndex, TailSumBelowThreshold) {
  testutil::World world = testutil::SmallWorld(5);
  testutil::WorldInput wi(world);
  DetectionParams params = PaperParams();
  auto index_or = InvertedIndex::Build(wi.Input(world), params);
  ASSERT_TRUE(index_or.ok());
  const InvertedIndex& index = *index_or;
  double sum = 0.0;
  for (size_t rank = index.tail_begin(); rank < index.num_entries();
       ++rank) {
    sum += index.entry(rank).score;
  }
  EXPECT_LT(sum, params.theta_ind());
  // Maximality: adding the entry just before the tail crosses it.
  if (index.tail_begin() > 0) {
    EXPECT_GE(sum + index.entry(index.tail_begin() - 1).score,
              params.theta_ind());
  }
}

TEST(InvertedIndex, OtherOrderingsHaveNoTail) {
  testutil::World world = testutil::SmallWorld(6);
  testutil::WorldInput wi(world);
  for (EntryOrdering ordering :
       {EntryOrdering::kByProvider, EntryOrdering::kRandom}) {
    auto index_or =
        InvertedIndex::Build(wi.Input(world), PaperParams(), ordering, 9);
    ASSERT_TRUE(index_or.ok());
    EXPECT_EQ(index_or->tail_begin(), index_or->num_entries())
        << EntryOrderingName(ordering);
  }
}

TEST(InvertedIndex, ByProviderOrderingIsMonotone) {
  testutil::World world = testutil::SmallWorld(7);
  testutil::WorldInput wi(world);
  auto index_or = InvertedIndex::Build(wi.Input(world), PaperParams(),
                                       EntryOrdering::kByProvider, 1);
  ASSERT_TRUE(index_or.ok());
  const InvertedIndex& index = *index_or;
  for (size_t rank = 1; rank < index.num_entries(); ++rank) {
    EXPECT_LE(index.providers(rank - 1).size(),
              index.providers(rank).size());
  }
}

TEST(InvertedIndex, RescoreKeepsOrderUpdatesScores) {
  ExampleFixture fx;
  auto index_or = InvertedIndex::Build(fx.Input(), PaperParams());
  ASSERT_TRUE(index_or.ok());
  InvertedIndex index = std::move(index_or).value();

  SlotId first_slot = index.entry(0).slot;
  // Flip all probabilities to 0.5 and rescore: order (slots per rank)
  // must stay frozen while scores change.
  std::vector<double> new_probs(fx.world.data.num_slots(), 0.5);
  DetectionInput in;
  in.data = &fx.world.data;
  in.value_probs = &new_probs;
  in.accuracies = &fx.accs;
  index.Rescore(in, PaperParams());
  EXPECT_EQ(index.entry(0).slot, first_slot);
  EXPECT_NEAR(index.entry(0).probability, 0.5, 1e-12);
}

// The radix-ordered index: SortByContribution must yield the same
// permutation as the comparator sort it replaced, on scores with ties,
// both zeros, negatives, subnormals and infinities.
TEST(InvertedIndex, RadixOrderEqualsComparatorSort) {
  const double kSpecial[] = {
      0.0,
      -0.0,
      1.0,
      -1.0,
      std::numeric_limits<double>::denorm_min(),
      -std::numeric_limits<double>::denorm_min(),
      std::numeric_limits<double>::min() / 4,  // subnormal
      -std::numeric_limits<double>::min() / 4,
      std::numeric_limits<double>::min(),
      std::numeric_limits<double>::max(),
      -std::numeric_limits<double>::max(),
      std::numeric_limits<double>::infinity(),
      -std::numeric_limits<double>::infinity(),
      0.6931471805599453,
  };
  Rng rng(17);
  for (size_t size : {0, 1, 2, 3, 17, 256, 1000, 5000}) {
    std::vector<IndexEntry> entries(size);
    for (size_t i = 0; i < size; ++i) {
      IndexEntry& e = entries[i];
      e.slot = static_cast<SlotId>(i);  // ascending, as Build appends
      e.probability = static_cast<double>(i);
      switch (rng.NextBelow(4)) {
        case 0:  // a special value, with many ties
          e.score = kSpecial[rng.NextBelow(std::size(kSpecial))];
          break;
        case 1:  // few distinct values: ties
          e.score = static_cast<double>(rng.UniformInt(-3, 3)) * 0.25;
          break;
        case 2:
          e.score = rng.UniformDouble(-50.0, 50.0);
          break;
        default:  // raw bit patterns: every exponent, subnormals too
          do {
            const uint64_t bits = rng.NextU64();
            std::memcpy(&e.score, &bits, sizeof(double));
          } while (e.score != e.score);  // scores are never NaN
          break;
      }
    }
    std::vector<IndexEntry> want = entries;
    std::sort(want.begin(), want.end(),
              [](const IndexEntry& a, const IndexEntry& b) {
                if (a.score != b.score) return a.score > b.score;
                return a.slot < b.slot;
              });
    inverted_index_internal::SortByContribution(&entries);
    ASSERT_EQ(entries.size(), want.size());
    for (size_t rank = 0; rank < size; ++rank) {
      ASSERT_EQ(entries[rank].slot, want[rank].slot)
          << "rank " << rank << " of " << size;
      // The entry moves whole, score bits included (-0.0 stays -0.0).
      EXPECT_EQ(entries[rank].probability, want[rank].probability);
      EXPECT_EQ(std::memcmp(&entries[rank].score, &want[rank].score,
                            sizeof(double)),
                0)
          << "rank " << rank << " of " << size;
    }
  }
}

TEST(OverlapCache, ReusesCountsForSameDataset) {
  ExampleFixture fx;
  OverlapCache cache;
  const OverlapCounts& first = cache.Get(fx.world.data);
  EXPECT_EQ(first.Get(2, 3), 5u);
  EXPECT_EQ(first.Get(0, 6), 3u);
  // Same data set: same object, no recomputation.
  EXPECT_EQ(&cache.Get(fx.world.data), &first);
}

}  // namespace
}  // namespace copydetect
