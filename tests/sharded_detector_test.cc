// Shard-plan partitioning, the in-process N-shard harness, and the
// multi-process BSP protocol through the Session facade. The central
// claim under test is the PR's contract: a sharded run — in-process
// or split across coordinator/shard round trips — reproduces the
// single-process run bit for bit, for every registered detector.
#include <cstdio>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "copydetect/session.h"
#include "core/detector_registry.h"
#include "core/shard_merge.h"
#include "core/sharded_detector.h"
#include "fusion/truth_finder.h"
#include "model/shard_plan.h"
#include "snapshot/snapshot_io.h"
#include "test_util.h"

namespace copydetect {
namespace {

using testutil::PaperParams;
using testutil::SmallWorld;

// ---------------------------------------------------------------------
// ShardPlan: the ownership partition itself.

TEST(ShardPlan, EveryKeyOwnedByExactlyOneShard) {
  for (uint32_t num_shards : {1u, 2u, 4u, 7u}) {
    for (SourceId a = 0; a < 40; ++a) {
      for (SourceId b = a + 1; b < 40; ++b) {
        uint64_t key = PairKey(a, b);
        size_t owners = 0;
        for (uint32_t shard = 0; shard < num_shards; ++shard) {
          ShardPlan plan{num_shards, shard};
          if (plan.Owns(key)) ++owners;
        }
        EXPECT_EQ(owners, 1u)
            << "key " << key << " at " << num_shards << " shards";
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
        if (ShardPlan{kShards, shard}.Owns(PairKey(a, b))) {
          ++owned[shard];
        }
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
  for (uint64_t key = 0; key < 1000; ++key) {
    EXPECT_TRUE(plan.Owns(key));
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
    // A complete, consistent set merges.
    std::vector<ShardResult> shards = {MakeShard(2, 0, 1),
                                       MakeShard(2, 1, 1)};
    EXPECT_TRUE(MergeShardResults(shards, &copies, &counters).ok());
  }
}

// ---------------------------------------------------------------------
// Bit-identity of the in-process N-shard harness, every registered
// detector x shards {1,2,4,7} x threads {1,4}. EXPECT_EQ on doubles is
// exact equality — no tolerance anywhere.

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

FusionOptions TestFusionOptions(Executor* executor) {
  FusionOptions options;
  options.params = PaperParams();
  options.params.executor = executor;
  options.max_rounds = 4;
  return options;
}

TEST(ShardedDetector, BitIdenticalToUnshardedEveryDetector) {
  World world = SmallWorld(11);
  for (const std::string& name : ListDetectors()) {
    for (uint32_t shards : {1u, 2u, 4u, 7u}) {
      for (size_t threads : {size_t{1}, size_t{4}}) {
        SCOPED_TRACE(name + " shards=" + std::to_string(shards) +
                     " threads=" + std::to_string(threads));
        Executor baseline_executor(threads);
        FusionOptions options = TestFusionOptions(&baseline_executor);
        auto plain = CreateDetector(name, options.params);
        ASSERT_TRUE(plain.ok()) << plain.status().message();
        auto want =
            IterativeFusion(options).Run(world.data, plain->get());
        ASSERT_TRUE(want.ok()) << want.status().message();

        Executor sharded_executor(threads);
        FusionOptions sharded_options =
            TestFusionOptions(&sharded_executor);
        auto sharded = ShardedDetector::Create(
            name, sharded_options.params, shards);
        ASSERT_TRUE(sharded.ok()) << sharded.status().message();
        auto got = IterativeFusion(sharded_options)
                       .Run(world.data, sharded->get());
        ASSERT_TRUE(got.ok()) << got.status().message();

        ExpectSameFusion(*got, *want);
      }
    }
  }
}

TEST(ShardedDetector, RejectsUnknownInnerDetector) {
  DetectionParams params = PaperParams();
  EXPECT_FALSE(ShardedDetector::Create("no-such", params, 2).ok());
}

TEST(ShardedDetector, RejectsInvalidShardCount) {
  DetectionParams params = PaperParams();
  EXPECT_FALSE(ShardedDetector::Create("index", params, 0).ok());
}

// ---------------------------------------------------------------------
// The multi-process BSP protocol through the Session facade, run
// in-process: coordinator Init, N RunShardRound sessions per round,
// MergeShardRound, until done — against one plain Session::Run.

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

SessionOptions BspOptions(const std::string& detector,
                          uint32_t num_shards, uint32_t shard_id) {
  SessionOptions options;
  options.detector = detector;
  options.threads = 1;
  options.max_rounds = 5;
  options.plan.num_shards = num_shards;
  options.plan.shard_id = shard_id;
  return options;
}

Report RunBsp(const Dataset& data, const std::string& detector,
              uint32_t num_shards, const std::string& tag) {
  const std::string state_path = TempPath("bsp_state_" + tag);
  Session coordinator = [&] {
    auto made = Session::Create(BspOptions(detector, num_shards, 0));
    CD_CHECK_OK(made.status());
    return std::move(made).value();
  }();
  CD_CHECK_OK(coordinator.InitShardedRun(data, state_path));
  std::vector<Session> shards;
  for (uint32_t i = 0; i < num_shards; ++i) {
    auto made = Session::Create(BspOptions(detector, num_shards, i));
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

TEST(SessionBsp, BitIdenticalToSingleProcessRun) {
  World world = SmallWorld(23);
  for (const std::string detector : {"index", "pairwise", "hybrid"}) {
    for (uint32_t num_shards : {2u, 3u}) {
      SCOPED_TRACE(std::string(detector) +
                   " shards=" + std::to_string(num_shards));
      SessionOptions options;
      options.detector = detector;
      options.threads = 1;
      options.max_rounds = 5;
      auto session = Session::Create(options);
      ASSERT_TRUE(session.ok()) << session.status().message();
      auto want = session->Run(world.data);
      ASSERT_TRUE(want.ok()) << want.status().message();

      Report got = RunBsp(
          world.data, detector, num_shards,
          detector + std::to_string(num_shards));
      ExpectSameFusion(got.fusion, want->fusion);
      // The merged counters reproduce the single-process totals: each
      // pair is scanned by exactly its owning shard.
      EXPECT_EQ(got.counters.pairs_tracked,
                want->counters.pairs_tracked);
      EXPECT_EQ(got.counters.score_evals, want->counters.score_evals);
    }
  }
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
