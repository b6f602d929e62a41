#include "core/copy_result.h"

#include <utility>

#include <gtest/gtest.h>

namespace copydetect {
namespace {

PairPosterior MakePosterior(double indep, double first, double second) {
  return PairPosterior{indep, first, second};
}

TEST(CopyResult, GetIsOrderInsensitive) {
  CopyResult result;
  result.Set(3, 7, MakePosterior(0.2, 0.5, 0.3));
  PairPosterior a = result.Get(3, 7);
  PairPosterior b = result.Get(7, 3);
  EXPECT_EQ(a.p_indep, b.p_indep);
  EXPECT_EQ(a.p_first_copies, 0.5);
  EXPECT_EQ(b.p_first_copies, 0.5);  // "first" = smaller id, always
}

TEST(CopyResult, UntrackedPairIsIdentity) {
  CopyResult result;
  PairPosterior p = result.Get(1, 2);
  EXPECT_EQ(p.p_indep, 1.0);
  EXPECT_EQ(p.p_first_copies, 0.0);
  EXPECT_FALSE(result.IsCopying(1, 2));
  EXPECT_EQ(result.PrCopies(1, 2), 0.0);
}

TEST(CopyResult, PrCopiesIsDirectionAware) {
  CopyResult result;
  // Pair (2, 5): Pr(2 copies 5) = .6, Pr(5 copies 2) = .1.
  result.Set(2, 5, MakePosterior(0.3, 0.6, 0.1));
  EXPECT_EQ(result.PrCopies(2, 5), 0.6);
  EXPECT_EQ(result.PrCopies(5, 2), 0.1);
}

TEST(CopyResult, IsCopyingThreshold) {
  CopyResult result;
  result.Set(1, 2, MakePosterior(0.5, 0.25, 0.25));   // boundary: copying
  result.Set(3, 4, MakePosterior(0.51, 0.25, 0.24));  // just not
  EXPECT_TRUE(result.IsCopying(1, 2));
  EXPECT_FALSE(result.IsCopying(3, 4));
}

TEST(CopyResult, CopyingPairsFiltersAndForEachVisitsAll) {
  CopyResult result;
  result.Set(1, 2, MakePosterior(0.1, 0.45, 0.45));
  result.Set(3, 4, MakePosterior(0.9, 0.05, 0.05));
  result.Set(5, 6, MakePosterior(0.2, 0.4, 0.4));
  EXPECT_EQ(result.CopyingPairs().size(), 2u);
  EXPECT_EQ(result.NumTracked(), 3u);
  size_t visits = 0;
  result.ForEach([&visits](SourceId a, SourceId b,
                           const PairPosterior& p) {
    (void)p;
    EXPECT_LT(a, b);
    ++visits;
  });
  EXPECT_EQ(visits, 3u);
}

TEST(CopyResult, SetOverwrites) {
  CopyResult result;
  result.Set(1, 2, MakePosterior(0.1, 0.45, 0.45));
  result.Set(2, 1, MakePosterior(0.9, 0.05, 0.05));
  EXPECT_FALSE(result.IsCopying(1, 2));
  EXPECT_EQ(result.NumTracked(), 1u);
}

/// NumCopying by a walk over every tracked pair.
size_t CountCopyingByWalk(const CopyResult& result) {
  size_t n = 0;
  result.ForEach([&n](SourceId, SourceId, const PairPosterior& p) {
    if (p.IsCopying()) ++n;
  });
  return n;
}

TEST(CopyResult, NumCopyingFollowsEveryWrite) {
  CopyResult result;
  EXPECT_EQ(result.NumCopying(), 0u);
  // Inserts, copying and not, past the table's first growth.
  for (SourceId a = 0; a < 40; ++a) {
    const bool copying = a % 3 == 0;
    result.Set(a, a + 100,
               copying ? MakePosterior(0.2, 0.4, 0.4)
                       : MakePosterior(0.8, 0.1, 0.1));
    ASSERT_EQ(result.NumCopying(), CountCopyingByWalk(result)) << a;
  }
  EXPECT_EQ(result.NumCopying(), 14u);
  // Overwrites: copying -> not, not -> copying, and copying -> copying
  // and not -> not, which leave the count as it is.
  result.Set(0, 100, MakePosterior(0.9, 0.05, 0.05));
  EXPECT_EQ(result.NumCopying(), 13u);
  result.Set(101, 1, MakePosterior(0.5, 0.25, 0.25));
  EXPECT_EQ(result.NumCopying(), 14u);
  result.Set(3, 103, MakePosterior(0.1, 0.45, 0.45));
  result.Set(2, 102, MakePosterior(0.7, 0.15, 0.15));
  EXPECT_EQ(result.NumCopying(), 14u);
  EXPECT_EQ(result.NumCopying(), CountCopyingByWalk(result));
  EXPECT_EQ(result.NumCopying(), result.CopyingPairs().size());

  // FromRawMap recounts what it adopts.
  FlatHashMap<PairPosterior> raw = result.raw_map();
  CopyResult restored = CopyResult::FromRawMap(std::move(raw));
  EXPECT_EQ(restored.NumCopying(), 14u);
  EXPECT_EQ(restored.NumCopying(), CountCopyingByWalk(restored));

  result.Clear();
  EXPECT_EQ(result.NumCopying(), 0u);
  result.Set(1, 2, MakePosterior(0.1, 0.45, 0.45));
  EXPECT_EQ(result.NumCopying(), 1u);
  EXPECT_EQ(result.NumCopying(), CountCopyingByWalk(result));
}

TEST(CopyResult, ClearEmpties) {
  CopyResult result;
  result.Set(1, 2, MakePosterior(0.1, 0.45, 0.45));
  result.Clear();
  EXPECT_EQ(result.NumTracked(), 0u);
  EXPECT_FALSE(result.IsCopying(1, 2));
}

}  // namespace
}  // namespace copydetect
