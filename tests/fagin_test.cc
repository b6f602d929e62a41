#include "core/fagin_input.h"

#include <gtest/gtest.h>

#include "core/index_algo.h"
#include "test_util.h"

namespace copydetect {
namespace {

using testutil::ExampleFixture;
using testutil::PaperParams;

TEST(BuildFaginInput, ListsAreSortedDescending) {
  ExampleFixture fx;
  Counters counters;
  auto input = BuildFaginInput(fx.Input(), PaperParams(), &counters);
  ASSERT_TRUE(input.ok());
  for (const NraList& list : input->fwd_lists) {
    for (size_t i = 1; i < list.entries.size(); ++i) {
      EXPECT_GE(list.entries[i - 1].second, list.entries[i].second);
    }
  }
  // 13 entries + 1 difference list.
  EXPECT_EQ(input->fwd_lists.size(), 14u);
}

TEST(BuildFaginInput, DifferenceListCoversTrackedPairs) {
  ExampleFixture fx;
  Counters counters;
  auto input = BuildFaginInput(fx.Input(), PaperParams(), &counters);
  ASSERT_TRUE(input.ok());
  const NraList& diff = input->fwd_lists.back();
  // Every entry is non-positive: ln(1-s) * (l - n) <= 0.
  for (const auto& [key, score] : diff.entries) {
    EXPECT_LE(score, 1e-12);
  }
}

TEST(FaginTopK, TopPairIsAStrongCopier) {
  ExampleFixture fx;
  Counters counters;
  auto input = BuildFaginInput(fx.Input(), PaperParams(), &counters);
  ASSERT_TRUE(input.ok());
  NraResult top = FaginTopK(*input, 3, /*forward=*/true);
  ASSERT_GE(top.top.size(), 1u);
  // The strongest forward score belongs to one of the copier cliques.
  SourceId a = PairFirst(top.top[0].first);
  SourceId b = PairSecond(top.top[0].first);
  bool clique_23 = a >= 2 && a <= 4 && b >= 2 && b <= 4;
  bool clique_68 = a >= 6 && a <= 8 && b >= 6 && b <= 8;
  EXPECT_TRUE(clique_23 || clique_68) << a << "," << b;
}

TEST(FaginInputDetector, SameCopyingPairsAsIndex) {
  ExampleFixture fx;
  FaginInputDetector fagin(PaperParams());
  IndexDetector index_detector(PaperParams());
  CopyResult r1;
  CopyResult r2;
  ASSERT_TRUE(fagin.DetectRound(fx.Input(), 1, &r1).ok());
  ASSERT_TRUE(index_detector.DetectRound(fx.Input(), 1, &r2).ok());
  // FAGININPUT has no tail skipping, so it may track more pairs, but
  // the copying conclusions agree.
  EXPECT_EQ(testutil::CopySet(r1), testutil::CopySet(r2));
}

TEST(FaginInputDetector, RandomWorldAgreement) {
  testutil::World world = testutil::SmallWorld(401, 40, 250);
  testutil::WorldInput wi(world);
  DetectionInput in = wi.Input(world);
  FaginInputDetector fagin(PaperParams());
  IndexDetector index_detector(PaperParams());
  CopyResult r1;
  CopyResult r2;
  ASSERT_TRUE(fagin.DetectRound(in, 1, &r1).ok());
  ASSERT_TRUE(index_detector.DetectRound(in, 1, &r2).ok());
  EXPECT_EQ(testutil::CopySet(r1), testutil::CopySet(r2));
}

}  // namespace
}  // namespace copydetect
