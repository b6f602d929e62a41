#include "core/incremental.h"

#include <algorithm>
#include <vector>

#include <gtest/gtest.h>

#include "core/hybrid.h"
#include "eval/metrics.h"
#include "fusion/truth_finder.h"
#include "test_util.h"

namespace copydetect {
namespace {

using testutil::PaperParams;

FusionOptions Options() {
  FusionOptions options;
  options.params = PaperParams();
  options.max_rounds = 8;
  return options;
}

TEST(IncrementalDetector, FirstTwoRoundsAreFromScratch) {
  testutil::World world = testutil::SmallWorld(201);
  IncrementalDetector detector(PaperParams());
  IterativeFusion fusion(Options());
  auto result = fusion.Run(world.data, &detector);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_GE(detector.round_stats().size(), 3u);
  EXPECT_TRUE(detector.round_stats()[0].from_scratch);
  EXPECT_TRUE(detector.round_stats()[1].from_scratch);
  EXPECT_FALSE(detector.round_stats()[2].from_scratch);
}

TEST(IncrementalDetector, ResultsCloseToHybrid) {
  for (uint64_t seed : {211ULL, 212ULL, 213ULL}) {
    testutil::World world = testutil::SmallWorld(seed, 40, 300);

    IncrementalDetector incremental(PaperParams());
    HybridDetector hybrid(PaperParams());
    IterativeFusion fusion(Options());

    auto inc_run = fusion.Run(world.data, &incremental);
    auto hyb_run = fusion.Run(world.data, &hybrid);
    ASSERT_TRUE(inc_run.ok());
    ASSERT_TRUE(hyb_run.ok());

    PrfScores prf = ComparePairs(inc_run->copies, hyb_run->copies);
    EXPECT_GE(prf.f1, 0.9) << "seed " << seed;

    double fusion_diff = FusionDifference(world.data, inc_run->truth,
                                          hyb_run->truth);
    EXPECT_LE(fusion_diff, 0.05) << "seed " << seed;

    double acc_var =
        AccuracyVariance(inc_run->accuracies, hyb_run->accuracies);
    EXPECT_LE(acc_var, 0.05) << "seed " << seed;
  }
}

TEST(IncrementalDetector, LaterRoundsDoLessWork) {
  testutil::World world = testutil::SmallWorld(221, 50, 400);
  IterativeFusion fusion(Options());
  // A round here lasts about a millisecond of wall time, so a single
  // preemption on a busy host can outlast it. The run is deterministic:
  // repeat it and keep each round's fastest time, which is the round's
  // cost without the interference, on the from-scratch and the
  // incremental side alike.
  constexpr int kRepeats = 5;
  std::vector<IncrementalDetector::RoundStats> stats;
  for (int rep = 0; rep < kRepeats; ++rep) {
    IncrementalDetector detector(PaperParams());
    auto result = fusion.Run(world.data, &detector);
    ASSERT_TRUE(result.ok());
    const auto& run = detector.round_stats();
    if (rep == 0) {
      stats = run;
      continue;
    }
    ASSERT_EQ(run.size(), stats.size());
    for (size_t i = 0; i < run.size(); ++i) {
      EXPECT_EQ(run[i].from_scratch, stats[i].from_scratch);
      stats[i].seconds = std::min(stats[i].seconds, run[i].seconds);
    }
  }
  ASSERT_GE(stats.size(), 3u);
  // Incremental rounds should be much cheaper than the from-scratch
  // rounds (the paper reports 3-14%; we allow a loose factor 2 margin).
  double scratch = stats[1].seconds;
  for (size_t i = 2; i < stats.size(); ++i) {
    EXPECT_FALSE(stats[i].from_scratch);
    EXPECT_LT(stats[i].seconds, scratch * 0.5 + 1e-3)
        << "round " << stats[i].round;
  }
}

TEST(IncrementalDetector, MostPairsTerminateInPassOne) {
  testutil::World world = testutil::SmallWorld(222, 50, 400);
  IncrementalDetector detector(PaperParams());
  IterativeFusion fusion(Options());
  auto result = fusion.Run(world.data, &detector);
  ASSERT_TRUE(result.ok());
  const auto& stats = detector.round_stats();
  for (size_t i = 2; i < stats.size(); ++i) {
    uint64_t total = stats[i].pass1 + stats[i].pass2 + stats[i].pass3 +
                     stats[i].exact;
    if (total == 0) continue;
    // Table VIII: >= 86% of pairs terminate in pass 1.
    EXPECT_GE(static_cast<double>(stats[i].pass1),
              0.7 * static_cast<double>(total))
        << "round " << stats[i].round;
  }
}

TEST(IncrementalDetector, ResetRestoresFreshState) {
  testutil::World world = testutil::SmallWorld(231);
  IncrementalDetector detector(PaperParams());
  IterativeFusion fusion(Options());
  ASSERT_TRUE(fusion.Run(world.data, &detector).ok());
  detector.Reset();
  EXPECT_TRUE(detector.round_stats().empty());
  EXPECT_EQ(detector.counters().Total(), 0u);
  // Works again after reset.
  auto again = fusion.Run(world.data, &detector);
  ASSERT_TRUE(again.ok());
}

TEST(IncrementalDetector, DetectsPlantedCopiersOnExample) {
  testutil::ExampleFixture fx;
  IncrementalDetector detector(PaperParams());
  IterativeFusion fusion(Options());
  auto result = fusion.Run(fx.world.data, &detector);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->copies.IsCopying(2, 3));
  EXPECT_TRUE(result->copies.IsCopying(6, 8));
  EXPECT_FALSE(result->copies.IsCopying(0, 1));
}

}  // namespace
}  // namespace copydetect
