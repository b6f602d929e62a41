// The pair partition and the multi-process BSP protocol through the
// Session facade. ShardPlan splits pairs by row (OwnsRow), the merge
// refuses a shard holding a pair outside its rows, and the central
// claim under test is the sharding contract: a run split across
// coordinator/shard round trips reproduces the single-process run bit
// for bit, for every round-stateless registered detector at every
// thread count.
#include <cstdio>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "copydetect/session.h"
#include "core/detector_registry.h"
#include "core/inverted_index.h"
#include "core/shard_merge.h"
#include "core/sharded_scan.h"
#include "eval/experiment.h"
#include "model/shard_plan.h"
#include "snapshot/snapshot_io.h"
#include "test_util.h"

namespace copydetect {
namespace {

using testutil::SmallWorld;

// ---------------------------------------------------------------------
// ShardPlan: the row partition itself.

TEST(ShardPlan, EveryKeyOwnedByExactlyOneShard) {
  for (uint32_t num_shards : {1u, 2u, 4u, 7u}) {
    for (SourceId a = 0; a < 40; ++a) {
      for (SourceId b = a + 1; b < 40; ++b) {
        size_t owners = 0;
        for (uint32_t shard = 0; shard < num_shards; ++shard) {
          ShardPlan plan{num_shards, shard};
          if (plan.OwnsRow(PairFirst(PairKey(a, b)))) ++owners;
        }
        EXPECT_EQ(owners, 1u)
            << "pair " << a << "," << b << " at " << num_shards
            << " shards";
      }
    }
  }
}

TEST(ShardPlan, RoughlyBalancedPartition) {
  constexpr uint32_t kShards = 4;
  std::vector<size_t> owned(kShards, 0);
  size_t total = 0;
  for (SourceId a = 0; a < 80; ++a) {
    for (SourceId b = a + 1; b < 80; ++b) {
      for (uint32_t shard = 0; shard < kShards; ++shard) {
        if (ShardPlan{kShards, shard}.OwnsRow(a)) ++owned[shard];
      }
      ++total;
    }
  }
  for (uint32_t shard = 0; shard < kShards; ++shard) {
    EXPECT_GT(owned[shard], total / kShards / 2) << "shard " << shard;
    EXPECT_LT(owned[shard], total / kShards * 2) << "shard " << shard;
  }
}

TEST(ShardPlan, InactivePlanOwnsEverything) {
  ShardPlan plan;
  EXPECT_FALSE(plan.active());
  EXPECT_TRUE(plan.primary());
  for (SourceId lo = 0; lo < 1000; ++lo) {
    EXPECT_TRUE(plan.OwnsRow(lo));
  }
}

TEST(ShardPlan, ValidateRejectsBadPlans) {
  EXPECT_FALSE((ShardPlan{0, 0}).Validate().ok());
  EXPECT_FALSE((ShardPlan{2, 2}).Validate().ok());
  EXPECT_FALSE((ShardPlan{2, 7}).Validate().ok());
  EXPECT_TRUE((ShardPlan{1, 0}).Validate().ok());
  EXPECT_TRUE((ShardPlan{7, 6}).Validate().ok());
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

// ---------------------------------------------------------------------
// MergeShardResults: the shard-set requirements.

ShardResult MakeShard(uint32_t num_shards, uint32_t shard_id,
                      int round) {
  ShardResult shard;
  shard.num_shards = num_shards;
  shard.shard_id = shard_id;
  shard.round = round;
  return shard;
}

TEST(MergeShardResults, RejectsIncompleteOrInconsistentSets) {
  CopyResult copies;
  Counters counters;
  {
    // Missing shard 1 of 2.
    std::vector<ShardResult> shards = {MakeShard(2, 0, 1)};
    EXPECT_FALSE(MergeShardResults(shards, &copies, &counters).ok());
  }
  {
    // Shard 0 present twice.
    std::vector<ShardResult> shards = {MakeShard(2, 0, 1),
                                       MakeShard(2, 0, 1)};
    EXPECT_FALSE(MergeShardResults(shards, &copies, &counters).ok());
  }
  {
    // Disagreeing plan widths.
    std::vector<ShardResult> shards = {MakeShard(2, 0, 1),
                                       MakeShard(3, 1, 1)};
    EXPECT_FALSE(MergeShardResults(shards, &copies, &counters).ok());
  }
  {
    // Disagreeing rounds.
    std::vector<ShardResult> shards = {MakeShard(2, 0, 1),
                                       MakeShard(2, 1, 2)};
    EXPECT_FALSE(MergeShardResults(shards, &copies, &counters).ok());
  }
  {
    // Shard 0 holds a pair of row 3, which shard 1 owns — a file cut
    // by another partition, or forged.
    std::vector<ShardResult> shards = {MakeShard(2, 0, 1),
                                       MakeShard(2, 1, 1)};
    shards[0].copies.Set(2, 5, PairPosterior{0.2, 0.4, 0.4});
    shards[0].copies.Set(3, 4, PairPosterior{0.2, 0.4, 0.4});
    Status status = MergeShardResults(shards, &copies, &counters);
    EXPECT_FALSE(status.ok());
    EXPECT_NE(status.message().find("shard 0 holds pair (3, 4)"),
              std::string::npos)
        << status.message();
  }
  {
    // A complete, consistent set merges.
    std::vector<ShardResult> shards = {MakeShard(2, 0, 1),
                                       MakeShard(2, 1, 1)};
    shards[0].copies.Set(2, 5, PairPosterior{0.2, 0.4, 0.4});
    shards[1].copies.Set(3, 4, PairPosterior{0.3, 0.3, 0.4});
    EXPECT_TRUE(MergeShardResults(shards, &copies, &counters).ok());
    EXPECT_EQ(copies.NumTracked(), 2u);
    EXPECT_EQ(copies.Get(3, 4).p_indep, 0.3);
  }
}

// ---------------------------------------------------------------------
// The multi-process BSP protocol through the Session facade, run
// in-process: coordinator Init, N RunShardRound sessions per round,
// MergeShardRound, until done — against one plain Session::Run.
// EXPECT_EQ on doubles is exact equality — no tolerance anywhere.

void ExpectSameCopies(const CopyResult& got, const CopyResult& want) {
  EXPECT_EQ(got.NumTracked(), want.NumTracked());
  size_t checked = 0;
  want.ForEach([&](SourceId a, SourceId b, const PairPosterior& w) {
    PairPosterior g = got.Get(a, b);
    EXPECT_EQ(g.p_indep, w.p_indep) << "pair " << a << "," << b;
    EXPECT_EQ(g.p_first_copies, w.p_first_copies)
        << "pair " << a << "," << b;
    EXPECT_EQ(g.p_second_copies, w.p_second_copies)
        << "pair " << a << "," << b;
    ++checked;
  });
  EXPECT_EQ(checked, want.NumTracked());
}

void ExpectSameFusion(const FusionResult& got,
                      const FusionResult& want) {
  EXPECT_EQ(got.rounds, want.rounds);
  EXPECT_EQ(got.converged, want.converged);
  ASSERT_EQ(got.value_probs.size(), want.value_probs.size());
  for (size_t v = 0; v < want.value_probs.size(); ++v) {
    EXPECT_EQ(got.value_probs[v], want.value_probs[v]) << "slot " << v;
  }
  ASSERT_EQ(got.accuracies.size(), want.accuracies.size());
  for (size_t s = 0; s < want.accuracies.size(); ++s) {
    EXPECT_EQ(got.accuracies[s], want.accuracies[s]) << "src " << s;
  }
  EXPECT_EQ(got.truth, want.truth);
  ExpectSameCopies(got.copies, want.copies);
}

void ExpectSameCounters(const Counters& got, const Counters& want) {
  EXPECT_EQ(got.score_evals, want.score_evals);
  EXPECT_EQ(got.bound_evals, want.bound_evals);
  EXPECT_EQ(got.finalize_evals, want.finalize_evals);
  EXPECT_EQ(got.pairs_tracked, want.pairs_tracked);
  EXPECT_EQ(got.entries_scanned, want.entries_scanned);
  EXPECT_EQ(got.values_examined, want.values_examined);
  EXPECT_EQ(got.early_copy, want.early_copy);
  EXPECT_EQ(got.early_nocopy, want.early_nocopy);
}

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

SessionOptions BspOptions(const std::string& detector,
                          uint32_t num_shards, uint32_t shard_id,
                          size_t threads = 1) {
  SessionOptions options;
  options.detector = detector;
  options.threads = threads;
  options.max_rounds = 5;
  options.plan.num_shards = num_shards;
  options.plan.shard_id = shard_id;
  return options;
}

Report RunBsp(const Dataset& data, const std::string& detector,
              uint32_t num_shards, size_t threads,
              const std::string& tag) {
  const std::string state_path = TempPath("bsp_state_" + tag);
  Session coordinator = [&] {
    auto made =
        Session::Create(BspOptions(detector, num_shards, 0, threads));
    CD_CHECK_OK(made.status());
    return std::move(made).value();
  }();
  CD_CHECK_OK(coordinator.InitShardedRun(data, state_path));
  std::vector<Session> shards;
  for (uint32_t i = 0; i < num_shards; ++i) {
    auto made =
        Session::Create(BspOptions(detector, num_shards, i, threads));
    CD_CHECK_OK(made.status());
    shards.push_back(std::move(made).value());
  }
  bool done = false;
  for (int round = 0; round < 64 && !done; ++round) {
    std::vector<std::string> shard_paths;
    for (uint32_t i = 0; i < num_shards; ++i) {
      std::string shard_path =
          TempPath("bsp_shard_" + tag + "_" + std::to_string(i));
      CD_CHECK_OK(shards[i].RunShardRound(data, state_path, shard_path));
      shard_paths.push_back(shard_path);
    }
    auto merged =
        coordinator.MergeShardRound(data, shard_paths, state_path);
    CD_CHECK_OK(merged.status());
    done = *merged;
    for (const std::string& p : shard_paths) std::remove(p.c_str());
  }
  EXPECT_TRUE(done) << "BSP run never finished";
  std::remove(state_path.c_str());
  return coordinator.report();
}

// Every registered detector but INCREMENTAL (whose cross-round state
// the BSP entry points refuse) x shards {1,2,3,4,7} x threads {1,4}:
// each process splits its rows over its workers, and the merged
// fusion result and all eight counters equal the single-process run's.
TEST(SessionBsp, BitIdenticalToSingleProcessRun) {
  World world = SmallWorld(23);
  for (const std::string& detector : ListDetectors()) {
    if (detector == "incremental") continue;
    for (uint32_t num_shards : {1u, 2u, 3u, 4u, 7u}) {
      for (size_t threads : {size_t{1}, size_t{4}}) {
        SCOPED_TRACE(detector + " shards=" + std::to_string(num_shards) +
                     " threads=" + std::to_string(threads));
        SessionOptions options = BspOptions(detector, 1, 0, threads);
        auto session = Session::Create(options);
        ASSERT_TRUE(session.ok()) << session.status().message();
        auto want = session->Run(world.data);
        ASSERT_TRUE(want.ok()) << want.status().message();

        Report got =
            RunBsp(world.data, detector, num_shards, threads,
                   detector + std::to_string(num_shards) + "_" +
                       std::to_string(threads));
        ExpectSameFusion(got.fusion, want->fusion);
        // Each pair is scanned by exactly its owning shard and worker,
        // and stream-level work is charged once.
        ExpectSameCounters(got.counters, want->counters);
      }
    }
  }
}

// A shard file whose pairs lie outside its rows — here shard 0 of 2
// claiming a pair of row 1 — is refused at the merge, not folded in.
TEST(SessionBsp, MergeRefusesForgedShard) {
  World world = SmallWorld(5);
  const std::string state_path = TempPath("bsp_forged_state");
  auto coordinator = Session::Create(BspOptions("index", 2, 0));
  ASSERT_TRUE(coordinator.ok());
  CD_CHECK_OK(coordinator->InitShardedRun(world.data, state_path));
  auto honest = Session::Create(BspOptions("index", 2, 1));
  ASSERT_TRUE(honest.ok());
  const std::string honest_path = TempPath("bsp_forged_shard1");
  CD_CHECK_OK(honest->RunShardRound(world.data, state_path, honest_path));

  ShardResult forged;
  forged.num_shards = 2;
  forged.shard_id = 0;
  forged.round = 1;
  forged.copies.Set(1, 2, PairPosterior{0.1, 0.8, 0.1});
  const std::string forged_path = TempPath("bsp_forged_shard0");
  CD_CHECK_OK(snapshot::WriteShardResult(forged_path, forged));

  auto merged = coordinator->MergeShardRound(
      world.data, {forged_path, honest_path}, state_path);
  EXPECT_FALSE(merged.ok());
  EXPECT_NE(merged.status().message().find("shard 0 holds pair (1, 2)"),
            std::string::npos)
      << merged.status().message();
  std::remove(forged_path.c_str());
  std::remove(honest_path.c_str());
  std::remove(state_path.c_str());
}

TEST(SessionBsp, RunWithActivePlanIsRefused) {
  World world = SmallWorld(5);
  auto session = Session::Create(BspOptions("index", 3, 1));
  ASSERT_TRUE(session.ok()) << session.status().message();
  auto report = session->Run(world.data);
  EXPECT_FALSE(report.ok());
  EXPECT_NE(report.status().message().find("InitShardedRun"),
            std::string::npos);
}

TEST(SessionBsp, ActivePlanIncompatibleWithOnlineUpdates) {
  SessionOptions options = BspOptions("index", 2, 0);
  options.online_updates = true;
  EXPECT_FALSE(Session::Create(options).ok());
}

TEST(SessionBsp, InvalidPlanRejectedAtCreate) {
  EXPECT_FALSE(Session::Create(BspOptions("index", 2, 5)).ok());
}

TEST(SessionBsp, IncrementalDetectorIsRefused) {
  World world = SmallWorld(5);
  auto session = Session::Create(BspOptions("incremental", 2, 0));
  ASSERT_TRUE(session.ok()) << session.status().message();
  Status status =
      session->InitShardedRun(world.data, TempPath("bsp_incr_state"));
  EXPECT_FALSE(status.ok());
  EXPECT_NE(status.message().find("incremental"), std::string::npos);
}

TEST(SessionBsp, ShardRoundRejectsMismatchedPlanWidth) {
  World world = SmallWorld(5);
  const std::string state_path = TempPath("bsp_width_state");
  auto coordinator = Session::Create(BspOptions("index", 2, 0));
  ASSERT_TRUE(coordinator.ok());
  CD_CHECK_OK(coordinator->InitShardedRun(world.data, state_path));
  auto wrong = Session::Create(BspOptions("index", 3, 1));
  ASSERT_TRUE(wrong.ok());
  Status status = wrong->RunShardRound(world.data, state_path,
                                       TempPath("bsp_width_shard"));
  EXPECT_FALSE(status.ok());
  std::remove(state_path.c_str());
}

}  // namespace
}  // namespace copydetect
