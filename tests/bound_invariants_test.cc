// Soundness invariants of the early-termination machinery (§IV):
// early *copying* conclusions rest on the exact lower bound Cmin and
// must therefore never contradict PAIRWISE; early *no-copying*
// conclusions rest on the estimated h and may rarely err — but only in
// that one direction. These tests pin the asymmetry.
#include <gtest/gtest.h>

#include "core/bayes.h"
#include "core/bound.h"
#include "core/pairwise.h"
#include "test_util.h"

namespace copydetect {
namespace {

using testutil::PaperParams;

struct Verdicts {
  std::vector<uint64_t> early_copy;
  std::vector<uint64_t> early_nocopy;
};

/// Runs a bounded scan and splits the concluded pairs by how they were
/// decided (early conclusions get their decision_rank before the scan
/// end; survivors are exact).
Verdicts EarlyVerdicts(const DetectionInput& in, bool lazy,
                       size_t* num_entries_out) {
  ScanConfig config;
  config.lazy_bounds = lazy;
  Counters counters;
  CopyResult result;
  ScanBookkeeping book;
  ScanOutputs extras;
  CD_CHECK_OK(BoundedScan(in, PaperParams(), config, &counters, &result,
                          &book, &extras));
  *num_entries_out = extras.num_entries;
  Verdicts v;
  book.ForEach([&](uint64_t key, PairBook& pb) {
    if (pb.decision_rank >= extras.num_entries) return;  // exact
    if (pb.decision > 0) {
      v.early_copy.push_back(key);
    } else {
      v.early_nocopy.push_back(key);
    }
  });
  return v;
}

class BoundSoundnessTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(BoundSoundnessTest, EarlyCopyConclusionsAreSound) {
  // Cmin (Eq. 9) is a true lower bound: every pair concluded copying
  // early must also be copying under exhaustive PAIRWISE.
  testutil::World world = testutil::SmallWorld(GetParam(), 45, 350);
  testutil::WorldInput wi(world);
  DetectionInput in = wi.Input(world);

  PairwiseDetector pairwise(PaperParams());
  CopyResult exact;
  ASSERT_TRUE(pairwise.DetectRound(in, 1, &exact).ok());

  for (bool lazy : {false, true}) {
    size_t entries = 0;
    Verdicts v = EarlyVerdicts(in, lazy, &entries);
    for (uint64_t key : v.early_copy) {
      EXPECT_TRUE(exact.IsCopying(PairFirst(key), PairSecond(key)))
          << "lazy=" << lazy << " pair " << PairFirst(key) << ","
          << PairSecond(key);
    }
  }
}

TEST_P(BoundSoundnessTest, EarlyNoCopyErrorsAreRare) {
  // Cmax (Eq. 10) uses the h estimate — not a certified bound — so a
  // small error rate is allowed, but it must stay small (the paper:
  // "the decisions are rarely different").
  testutil::World world = testutil::SmallWorld(GetParam(), 45, 350);
  testutil::WorldInput wi(world);
  DetectionInput in = wi.Input(world);

  PairwiseDetector pairwise(PaperParams());
  CopyResult exact;
  ASSERT_TRUE(pairwise.DetectRound(in, 1, &exact).ok());

  size_t entries = 0;
  Verdicts v = EarlyVerdicts(in, /*lazy=*/true, &entries);
  if (v.early_nocopy.empty()) return;
  size_t wrong = 0;
  for (uint64_t key : v.early_nocopy) {
    if (exact.IsCopying(PairFirst(key), PairSecond(key))) ++wrong;
  }
  EXPECT_LE(static_cast<double>(wrong),
            0.1 * static_cast<double>(v.early_nocopy.size()) + 2.0);
}

INSTANTIATE_TEST_SUITE_P(Worlds, BoundSoundnessTest,
                         ::testing::Values(811, 812, 813, 814));

TEST(BoundInvariants, SurvivorsAreExact) {
  // Pairs that reach the end of the scan have n0 == n, so their score
  // (and decision) must equal PAIRWISE's bit for bit.
  testutil::World world = testutil::SmallWorld(820, 40, 250);
  testutil::WorldInput wi(world);
  DetectionInput in = wi.Input(world);

  ScanConfig config;
  config.lazy_bounds = true;
  Counters counters;
  CopyResult result;
  ScanBookkeeping book;
  ScanOutputs extras;
  ASSERT_TRUE(BoundedScan(in, PaperParams(), config, &counters, &result,
                          &book, &extras)
                  .ok());

  size_t checked = 0;
  book.ForEach([&](uint64_t key, PairBook& pb) {
    if (pb.decision_rank < extras.num_entries) return;  // early
    if (checked >= 30) return;
    ++checked;
    SourceId a = PairFirst(key);
    SourceId b = PairSecond(key);
    Counters scratch;
    PairScores scores =
        ComputePairScores(in, a, b, PaperParams(), &scratch);
    PairPosterior recorded = result.Get(a, b);
    Posteriors post = DirectionPosteriors(scores.c_fwd, scores.c_bwd,
                                          PosteriorPrior(PaperParams()));
    EXPECT_NEAR(recorded.p_indep, post.indep, 1e-9)
        << "pair " << a << "," << b;
  });
  EXPECT_GT(checked, 0u);
}

TEST(BoundInvariants, TimersOnlyDelayConclusionsNeverChangeEndState) {
  // BOUND vs BOUND+ may terminate pairs at different entries, but a
  // pair that survives to the end in one must be concluded identically
  // in the other (both end states are exact).
  testutil::World world = testutil::SmallWorld(821, 40, 250);
  testutil::WorldInput wi(world);
  DetectionInput in = wi.Input(world);
  BoundDetector eager(PaperParams(), /*lazy=*/false);
  BoundDetector lazy(PaperParams(), /*lazy=*/true);
  CopyResult r_eager;
  CopyResult r_lazy;
  ASSERT_TRUE(eager.DetectRound(in, 1, &r_eager).ok());
  ASSERT_TRUE(lazy.DetectRound(in, 1, &r_lazy).ok());
  // Lazy timers can only *delay* bound checks; decisions made from
  // exact end-state scores agree. Compare copying sets with a small
  // tolerance for pairs whose early h-estimates differed.
  std::vector<uint64_t> a = testutil::CopySet(r_eager);
  std::vector<uint64_t> b = testutil::CopySet(r_lazy);
  size_t common = 0;
  for (uint64_t key : a) {
    if (std::find(b.begin(), b.end(), key) != b.end()) ++common;
  }
  ASSERT_FALSE(a.empty());
  EXPECT_GE(static_cast<double>(common),
            0.9 * static_cast<double>(std::max(a.size(), b.size())));
}

}  // namespace
}  // namespace copydetect
