#include "simjoin/overlap.h"

#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "model/dataset_delta.h"
#include "simjoin/intersect.h"
#include "test_util.h"

namespace copydetect {
namespace {

TEST(OverlapCounts, MotivatingExampleCounts) {
  testutil::ExampleFixture fx;
  OverlapCounts counts = ComputeOverlaps(fx.world.data);
  EXPECT_EQ(counts.Get(2, 3), 5u);
  EXPECT_EQ(counts.Get(3, 2), 5u);  // symmetric
  EXPECT_EQ(counts.Get(0, 1), 4u);
  EXPECT_EQ(counts.Get(0, 6), 3u);
  EXPECT_EQ(counts.Get(0, 9), 2u);  // NJ and TX

  EXPECT_EQ(counts.Get(5, 5), 0u);  // self
}

TEST(OverlapCounts, DenseAndSparseAgree) {
  testutil::World world = testutil::SmallWorld(55, 35, 250);
  OverlapCounts dense = ComputeOverlaps(world.data, /*threshold=*/1000);
  OverlapCounts sparse = ComputeOverlaps(world.data, /*threshold=*/1);
  for (SourceId a = 0; a < world.data.num_sources(); ++a) {
    for (SourceId b = static_cast<SourceId>(a + 1);
         b < world.data.num_sources(); ++b) {
      EXPECT_EQ(dense.Get(a, b), sparse.Get(a, b))
          << "pair " << a << "," << b;
    }
  }
  EXPECT_EQ(dense.NumPositivePairs(), sparse.NumPositivePairs());
}

TEST(OverlapCounts, MatchesBruteForceJoin) {
  // The oracle: one sorted-list intersection per source pair.
  testutil::World world = testutil::SmallWorld(56, 25, 150);
  const Dataset& data = world.data;
  OverlapCounts counts = ComputeOverlaps(data);
  size_t positive = 0;
  for (SourceId a = 0; a < data.num_sources(); ++a) {
    for (SourceId b = static_cast<SourceId>(a + 1);
         b < data.num_sources(); ++b) {
      const uint32_t want = IntersectSize(data.items_of(a),
                                          data.items_of(b));
      EXPECT_EQ(counts.Get(a, b), want) << "pair " << a << "," << b;
      if (want > 0) ++positive;
    }
  }
  EXPECT_EQ(counts.NumPositivePairs(), positive);
}

TEST(OverlapCounts, ForEachVisitsPositivePairsOnce) {
  testutil::ExampleFixture fx;
  OverlapCounts counts = ComputeOverlaps(fx.world.data);
  size_t visits = 0;
  uint64_t sum = 0;
  counts.ForEach([&](uint64_t key, uint32_t c) {
    (void)key;
    ++visits;
    sum += c;
  });
  EXPECT_EQ(visits, counts.NumPositivePairs());
  // Sum over pairs of shared items = sum over items of C(providers,2)
  // = 36+28+36+36+45 = 181 on the running example.
  EXPECT_EQ(sum, 181u);
}

TEST(Dataset, GenerationIsUniquePerBuildAndSharedByCopies) {
  testutil::World w1 = testutil::SmallWorld(63, 10, 50);
  testutil::World w2 = testutil::SmallWorld(64, 10, 50);
  EXPECT_NE(w1.data.generation(), w2.data.generation());
  EXPECT_GT(w1.data.generation(), 0u);
  // A copy holds identical content, so it legitimately shares the id.
  Dataset copy = w1.data;
  EXPECT_EQ(copy.generation(), w1.data.generation());
}

TEST(OverlapCache, RecycledAddressDoesNotServeStaleCounts) {
  // Regression: the cache used to key on the Dataset's address. A
  // *different* data set allocated where a freed one lived silently
  // inherited the old counts (and downstream, stale l could drop below
  // the observed shared-value count — the finalization underflow).
  // Keying on Dataset::generation() makes the counts follow the data
  // whether or not the allocator recycles the address.
  OverlapCache cache;
  auto first =
      std::make_unique<testutil::World>(testutil::SmallWorld(61, 20, 120));
  const void* first_addr = &first->data;
  (void)cache.Get(first->data);
  first.reset();
  auto second =
      std::make_unique<testutil::World>(testutil::SmallWorld(62, 20, 120));
  // Whether the address was recycled or not, the cache must serve the
  // second data set's own counts.
  OverlapCounts fresh = ComputeOverlaps(second->data);
  const OverlapCounts& cached = cache.Get(second->data);
  size_t checked = 0;
  for (SourceId a = 0; a < second->data.num_sources(); ++a) {
    for (SourceId b = static_cast<SourceId>(a + 1);
         b < second->data.num_sources(); ++b) {
      EXPECT_EQ(cached.Get(a, b), fresh.Get(a, b))
          << "pair " << a << "," << b
          << (first_addr == &second->data ? " (address recycled)" : "");
      ++checked;
    }
  }
  EXPECT_GT(checked, 0u);
  EXPECT_EQ(cached.NumPositivePairs(), fresh.NumPositivePairs());
}

TEST(OverlapCache, ClearForcesRecompute) {
  testutil::World world = testutil::SmallWorld(65, 15, 80);
  OverlapCache cache;
  const OverlapCounts& a = cache.Get(world.data);
  size_t pairs = a.NumPositivePairs();
  cache.Clear();
  const OverlapCounts& b = cache.Get(world.data);
  EXPECT_EQ(b.NumPositivePairs(), pairs);
}

// ---------------------------------------------------------------------
// Delta maintenance (UpdateOverlaps, OverlapCache::Advance).

/// A delta over SmallWorld that retracts, overwrites and adds cells.
AppliedDelta ApplyTestDelta(const Dataset& base) {
  DatasetDelta delta;
  // Retract source 0's first two items, flip source 1's first item to
  // a fresh value, give source 2 a brand-new item, and add a new
  // source on an existing item.
  std::span<const ItemId> items0 = base.items_of(0);
  delta.Retract(base.source_name(0), base.item_name(items0[0]));
  delta.Retract(base.source_name(0), base.item_name(items0[1]));
  std::span<const ItemId> items1 = base.items_of(1);
  delta.Set(base.source_name(1), base.item_name(items1[0]), "flipped");
  delta.Set(base.source_name(2), "delta-item", "new-value");
  delta.Set("delta-source", base.item_name(0), "another");
  auto applied = base.Apply(delta);
  CD_CHECK_OK(applied.status());
  return std::move(applied).value();
}

void ExpectSameCounts(const OverlapCounts& got, const OverlapCounts& want,
                      size_t num_sources) {
  for (SourceId a = 0; a < num_sources; ++a) {
    for (SourceId b = static_cast<SourceId>(a + 1); b < num_sources;
         ++b) {
      ASSERT_EQ(got.Get(a, b), want.Get(a, b))
          << "pair " << a << "," << b;
    }
  }
  EXPECT_EQ(got.NumPositivePairs(), want.NumPositivePairs());
}

TEST(UpdateOverlaps, RefusesWhenSourceUniverseChanges) {
  testutil::World world = testutil::SmallWorld(70, 20, 100);
  AppliedDelta applied = ApplyTestDelta(world.data);  // adds a source
  OverlapCounts counts = ComputeOverlaps(world.data);
  EXPECT_FALSE(UpdateOverlaps(&counts, world.data, applied.data,
                              applied.summary.touched_items));
}

TEST(UpdateOverlaps, MatchesFullRecountDense) {
  testutil::World world = testutil::SmallWorld(71, 20, 100);
  // Same-universe delta (no new sources).
  DatasetDelta delta;
  const Dataset& base = world.data;
  std::span<const ItemId> items0 = base.items_of(0);
  delta.Retract(base.source_name(0), base.item_name(items0[0]));
  std::span<const ItemId> items3 = base.items_of(3);
  delta.Set(base.source_name(3), base.item_name(items3[0]), "flip");
  delta.Set(base.source_name(4), "fresh-item", "v");
  auto applied = base.Apply(delta);
  CD_CHECK_OK(applied.status());

  OverlapCounts counts = ComputeOverlaps(base);
  ASSERT_TRUE(UpdateOverlaps(&counts, base, applied->data,
                             applied->summary.touched_items));
  ExpectSameCounts(counts, ComputeOverlaps(applied->data),
                   applied->data.num_sources());
}

TEST(UpdateOverlaps, MatchesFullRecountSparseWithZeroedPairs) {
  // Sparse mode (threshold 1) and a retraction-heavy delta so some
  // pair counts drop — a few all the way to zero.
  testutil::World world = testutil::SmallWorld(72, 25, 60);
  const Dataset& base = world.data;
  DatasetDelta delta;
  for (SourceId s = 0; s < 6; ++s) {
    std::span<const ItemId> items = base.items_of(s);
    for (size_t i = 0; i < items.size() && i < 4; ++i) {
      delta.Retract(base.source_name(s), base.item_name(items[i]));
    }
  }
  auto applied = base.Apply(delta);
  CD_CHECK_OK(applied.status());

  OverlapCounts counts = ComputeOverlaps(base, /*dense_threshold=*/1);
  ASSERT_TRUE(UpdateOverlaps(&counts, base, applied->data,
                             applied->summary.touched_items));
  OverlapCounts fresh = ComputeOverlaps(applied->data,
                                        /*dense_threshold=*/1);
  ExpectSameCounts(counts, fresh, applied->data.num_sources());
}

TEST(UpdateOverlaps, ChainedDeltasStayExact) {
  testutil::World world = testutil::SmallWorld(73, 18, 90);
  const Dataset& base = world.data;
  OverlapCounts counts = ComputeOverlaps(base);
  Dataset current = base;
  for (int step = 0; step < 3; ++step) {
    DatasetDelta delta;
    SourceId s = static_cast<SourceId>(2 * step);
    std::span<const ItemId> items = current.items_of(s);
    ASSERT_FALSE(items.empty());
    delta.Set(current.source_name(s), current.item_name(items[0]),
              "chain-" + std::to_string(step));
    delta.Retract(current.source_name(s + 1),
                  current.item_name(current.items_of(s + 1)[0]));
    auto applied = current.Apply(delta);
    CD_CHECK_OK(applied.status());
    ASSERT_TRUE(UpdateOverlaps(&counts, current, applied->data,
                               applied->summary.touched_items));
    current = std::move(applied->data);
    ExpectSameCounts(counts, ComputeOverlaps(current),
                     current.num_sources());
  }
}

TEST(OverlapCache, AdvancePatchesHeldCountsOrStaysEmpty) {
  testutil::World world = testutil::SmallWorld(74, 20, 100);
  const Dataset& base = world.data;
  DatasetDelta delta;  // same source universe: the patchable case
  std::span<const ItemId> items3 = base.items_of(3);
  delta.Set(base.source_name(3), base.item_name(items3[0]), "flip");
  auto applied = base.Apply(delta);
  CD_CHECK_OK(applied.status());
  const Dataset& next = applied->data;
  std::span<const ItemId> touched = applied->summary.touched_items;
  const OverlapCounts want = ComputeOverlaps(next);

  // Nothing held for the old data set: nothing to step, nothing counted.
  OverlapCache empty;
  EXPECT_FALSE(empty.Advance(base, next, touched, /*allow_patch=*/true));
  EXPECT_FALSE(empty.HasFor(next.generation()));

  OverlapCache patched;
  (void)patched.Get(base);
  EXPECT_TRUE(patched.Advance(base, next, touched, /*allow_patch=*/true));
  ASSERT_TRUE(patched.HasFor(next.generation()));
  ExpectSameCounts(patched.counts(), want, next.num_sources());

  OverlapCache recounted;
  (void)recounted.Get(base);
  EXPECT_FALSE(
      recounted.Advance(base, next, touched, /*allow_patch=*/false));
  ASSERT_TRUE(recounted.HasFor(next.generation()));
  ExpectSameCounts(recounted.counts(), want, next.num_sources());
}

// ---------------------------------------------------------------------
// PairPlan: per-run pair ids for the INDEX-family scans.

/// Checks `plan` against `data` and its counts by brute force: ids are
/// dense and unique, numbered by first appearance over ascending
/// slots, each slot's ids name exactly its provider pairs in the scans'
/// (i, j > i) order, and each id's l is the counted one.
void ExpectPlanOf(const PairPlan& plan, const Dataset& data,
                  const OverlapCounts& counts) {
  std::set<uint64_t> sharing;  // pairs that share at least one value
  std::vector<uint8_t> seen(plan.num_pairs(), 0);
  uint32_t fresh = 0;  // the id the next unseen pair must get
  for (SlotId v = 0; v < data.num_slots(); ++v) {
    std::span<const SourceId> providers = data.providers(v);
    std::span<const uint32_t> ids = plan.slot_pairs(v);
    const size_t k = providers.size();
    ASSERT_EQ(ids.size(), k * (k - 1) / 2) << "slot " << v;
    size_t next = 0;
    for (size_t i = 0; i + 1 < k; ++i) {
      for (size_t j = i + 1; j < k; ++j, ++next) {
        const uint32_t id = ids[next];
        ASSERT_LT(id, plan.num_pairs()) << "slot " << v;
        ASSERT_LE(id, fresh) << "slot " << v << ": ids out of "
                             << "first-appearance order";
        if (id == fresh) ++fresh;
        EXPECT_EQ(plan.key(id), PairKey(providers[i], providers[j]))
            << "slot " << v << ", pair (" << i << ", " << j << ")";
        seen[id] = 1;
        sharing.insert(PairKey(providers[i], providers[j]));
      }
    }
  }
  // Every id is used (dense) and the ids name distinct pairs (unique):
  // exactly one id per pair that shares a value.
  for (uint32_t id = 0; id < plan.num_pairs(); ++id) {
    EXPECT_TRUE(seen[id]) << "id " << id << " names no slot's pair";
  }
  EXPECT_EQ(plan.num_pairs(), sharing.size());
  std::set<uint64_t> keys;
  for (uint32_t id = 0; id < plan.num_pairs(); ++id) {
    keys.insert(plan.key(id));
    EXPECT_EQ(plan.shared_items(id),
              counts.Get(PairFirst(plan.key(id)), PairSecond(plan.key(id))))
        << "id " << id;
  }
  EXPECT_EQ(keys, sharing);
}

/// PairPlan::Build's rule: the dense id triangle when C(n, 2) is at
/// most the id array's length Σ C(k, 2), else the hash table.
bool NumbersThroughTriangle(const Dataset& data) {
  const size_t n = data.num_sources();
  size_t provider_pairs = 0;
  for (SlotId v = 0; v < data.num_slots(); ++v) {
    const size_t k = data.providers(v).size();
    provider_pairs += k * (k - 1) / 2;
  }
  return n * (n - 1) / 2 <= provider_pairs;
}

TEST(PairPlan, IdsNameEverySlotsProviderPairsInScanOrder) {
  testutil::ExampleFixture fx;
  const OverlapCounts example_counts = ComputeOverlaps(fx.world.data);
  ExpectPlanOf(PairPlan::Build(fx.world.data, example_counts),
               fx.world.data, example_counts);

  // Few pairs share a value: the hash side of the numbering rule.
  // Slot (b, z) repeats pair (1, 2) after (5, 6)'s slot is numbered
  // and before (3, 4)'s.
  DatasetBuilder sparse_builder;
  for (const char* s : {"s0", "s1", "s2"}) sparse_builder.Add(s, "a", "x");
  sparse_builder.Add("s3", "a", "y");
  for (const char* s : {"s1", "s2"}) sparse_builder.Add(s, "b", "z");
  for (const char* s : {"s5", "s6"}) sparse_builder.Add(s, "b", "w");
  for (const char* s : {"s3", "s4"}) sparse_builder.Add(s, "c", "x");
  sparse_builder.Add("s7", "c", "y");
  auto sparse = sparse_builder.Build();
  ASSERT_TRUE(sparse.ok()) << sparse.status().ToString();
  ASSERT_FALSE(NumbersThroughTriangle(*sparse));
  const OverlapCounts sparse_counts = ComputeOverlaps(*sparse);
  const PairPlan sparse_plan = PairPlan::Build(*sparse, sparse_counts);
  ExpectPlanOf(sparse_plan, *sparse, sparse_counts);
  EXPECT_EQ(sparse_plan.num_pairs(), 5u);

  // Many shared values among few sources: the triangle side.
  testutil::World world = testutil::SmallWorld(81, 30, 150);
  ASSERT_TRUE(NumbersThroughTriangle(world.data));
  size_t one_provider_slots = 0;
  for (SlotId v = 0; v < world.data.num_slots(); ++v) {
    if (world.data.providers(v).size() == 1) ++one_provider_slots;
  }
  ASSERT_GT(one_provider_slots, 0u) << "one-provider slots must be covered";
  // Dense and sparse counts give the same plan.
  for (size_t threshold : {size_t{1000}, size_t{1}}) {
    const OverlapCounts counts = ComputeOverlaps(world.data, threshold);
    ExpectPlanOf(PairPlan::Build(world.data, counts), world.data, counts);
  }
}

TEST(PairPlan, EmptyDataSetHasNoPairs) {
  DatasetBuilder builder;
  auto empty = builder.Build();
  ASSERT_TRUE(empty.ok()) << empty.status().ToString();
  OverlapCache cache;
  const PairPlan& plan = cache.Plan(*empty);
  EXPECT_EQ(plan.num_pairs(), 0u);

  // One source alone: every slot has one provider, so no pair.
  DatasetBuilder single;
  single.Add("only", "a", "1");
  single.Add("only", "b", "2");
  auto lone = single.Build();
  ASSERT_TRUE(lone.ok()) << lone.status().ToString();
  const PairPlan& lone_plan = cache.Plan(*lone);
  EXPECT_EQ(lone_plan.num_pairs(), 0u);
  for (SlotId v = 0; v < lone->num_slots(); ++v) {
    EXPECT_TRUE(lone_plan.slot_pairs(v).empty());
  }
}

TEST(OverlapCache, NeverServesAStalePlan) {
  testutil::World world = testutil::SmallWorld(83, 20, 100);
  const Dataset& base = world.data;
  DatasetDelta delta;  // same source universe: the patchable case
  std::span<const ItemId> items3 = base.items_of(3);
  delta.Set(base.source_name(3), base.item_name(items3[0]), "flip");
  delta.Set(base.source_name(4), base.item_name(items3[0]), "flip");
  auto applied = base.Apply(delta);
  CD_CHECK_OK(applied.status());
  const Dataset& next = applied->data;
  std::span<const ItemId> touched = applied->summary.touched_items;
  const OverlapCounts base_counts = ComputeOverlaps(base);
  const OverlapCounts next_counts = ComputeOverlaps(next);

  OverlapCache cache;
  ExpectPlanOf(cache.Plan(base), base, base_counts);
  for (bool allow_patch : {true, false}) {
    SCOPED_TRACE(allow_patch ? "patched" : "recounted");
    (void)cache.Plan(base);
    (void)cache.Advance(base, next, touched, allow_patch);
    ExpectPlanOf(cache.Plan(next), next, next_counts);
    cache.Set(ComputeOverlaps(base), base.generation());
  }
  // Set adopted base's counts after a plan of next was held.
  ExpectPlanOf(cache.Plan(base), base, base_counts);
  (void)cache.Plan(next);  // a new generation replaces the plan
  ExpectPlanOf(cache.Plan(next), next, next_counts);
  cache.Clear();
  ExpectPlanOf(cache.Plan(base), base, base_counts);
}

}  // namespace
}  // namespace copydetect
