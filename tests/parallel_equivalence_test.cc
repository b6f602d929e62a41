// Parallel/sequential equivalence of the executor-backed scan paths.
//
// The index scans shard by row ownership (core/sharded_scan.h: pair
// (lo, hi) belongs to shard lo % shards, and each shard enumerates
// only its own rows), which keeps every pair's floating-point
// accumulation in exact sequential order inside one shard — so the
// contract is *bit-identical* CopyResults and equal work counters,
// not approximate agreement, at every thread count including the
// degenerate "more threads than index entries" case.
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "common/executor.h"
#include "core/counters.h"
#include "core/detector.h"
#include "core/detector_registry.h"
#include "fusion/truth_finder.h"
#include "simjoin/intersect.h"
#include "test_util.h"

namespace copydetect {
namespace {

using testutil::NewDetector;
using testutil::PaperParams;

/// Asserts `got` and `want` are the same result bit for bit: same
/// tracked pairs, every posterior double exactly equal.
void ExpectBitIdentical(const CopyResult& got, const CopyResult& want) {
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

/// Asserts every work counter of `got` equals `want`'s.
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

/// Runs `name` serially and with an executor of `threads` workers and
/// compares results and every work counter.
void CheckDetectorEquivalence(const char* name, const DetectionInput& in,
                              size_t threads) {
  auto serial = NewDetector(name, PaperParams());
  CopyResult want;
  ASSERT_TRUE(serial->DetectRound(in, 1, &want).ok());

  Executor executor(threads);
  DetectionParams params = PaperParams();
  params.executor = &executor;
  auto parallel = NewDetector(name, params);
  CopyResult got;
  ASSERT_TRUE(parallel->DetectRound(in, 1, &got).ok());

  ExpectBitIdentical(got, want);
  ExpectSameCounters(parallel->counters(), serial->counters());
}

class ParallelEquivalenceTest
    : public ::testing::TestWithParam<size_t> {};

// 1 exercises the serial fallback, 2/4/7 real sharding (7 is odd on
// purpose: uneven row ownership; 4 is the acceptance width of the
// hot-path layout rework).
INSTANTIATE_TEST_SUITE_P(ThreadCounts, ParallelEquivalenceTest,
                         ::testing::Values(1, 2, 4, 7));

TEST_P(ParallelEquivalenceTest, IndexBitIdentical) {
  testutil::World world = testutil::SmallWorld(601, 40, 300);
  testutil::WorldInput wi(world);
  CheckDetectorEquivalence("index", wi.Input(world),
                           GetParam());
}

TEST_P(ParallelEquivalenceTest, PairwiseBitIdentical) {
  testutil::World world = testutil::SmallWorld(602, 35, 250);
  testutil::WorldInput wi(world);
  CheckDetectorEquivalence("pairwise", wi.Input(world),
                           GetParam());
}

TEST_P(ParallelEquivalenceTest, HybridBitIdentical) {
  testutil::World world = testutil::SmallWorld(603, 40, 300);
  testutil::WorldInput wi(world);
  CheckDetectorEquivalence("hybrid", wi.Input(world),
                           GetParam());
}

TEST_P(ParallelEquivalenceTest, BoundPlusBitIdentical) {
  testutil::World world = testutil::SmallWorld(604, 35, 250);
  testutil::WorldInput wi(world);
  CheckDetectorEquivalence("boundplus", wi.Input(world),
                           GetParam());
}

TEST_P(ParallelEquivalenceTest, FusionLoopBitIdentical) {
  // End-to-end: the whole iterative loop — detection rounds plus the
  // parallel per-item / per-source aggregation — must reproduce the
  // serial run exactly.
  testutil::World world = testutil::SmallWorld(606, 30, 200);

  FusionOptions serial_options;
  serial_options.params = PaperParams();
  serial_options.max_rounds = 4;
  auto serial_detector = NewDetector("hybrid", serial_options.params);
  auto want =
      IterativeFusion(serial_options).Run(world.data, serial_detector.get());
  ASSERT_TRUE(want.ok());

  Executor executor(GetParam());
  FusionOptions options = serial_options;
  options.params.executor = &executor;
  auto detector = NewDetector("hybrid", options.params);
  auto got = IterativeFusion(options).Run(world.data, detector.get());
  ASSERT_TRUE(got.ok());

  EXPECT_EQ(got->rounds, want->rounds);
  EXPECT_EQ(got->converged, want->converged);
  EXPECT_EQ(got->value_probs, want->value_probs);
  EXPECT_EQ(got->accuracies, want->accuracies);
  EXPECT_EQ(got->truth, want->truth);
  ExpectBitIdentical(got->copies, want->copies);
}

TEST(ParallelEquivalence, EveryRegisteredDetectorBitIdenticalAtFourThreads) {
  // Registry-driven: a detector added as one row of the detector
  // table is covered here with no test change. Serial vs 1-thread
  // executor vs 4-thread executor, all bit-identical.
  testutil::World world = testutil::SmallWorld(607, 40, 300);
  testutil::WorldInput wi(world);
  DetectionInput in = wi.Input(world);
  for (const std::string& name : ListDetectors()) {
    SCOPED_TRACE(name);
    auto serial = CreateDetector(name, PaperParams());
    ASSERT_TRUE(serial.ok()) << serial.status().message();
    CopyResult want;
    ASSERT_TRUE((*serial)->DetectRound(in, 1, &want).ok());

    for (size_t threads : {size_t{1}, size_t{4}}) {
      SCOPED_TRACE(threads);
      Executor executor(threads);
      DetectionParams params = PaperParams();
      params.executor = &executor;
      auto parallel = CreateDetector(name, params);
      ASSERT_TRUE(parallel.ok()) << parallel.status().message();
      CopyResult got;
      ASSERT_TRUE((*parallel)->DetectRound(in, 1, &got).ok());
      ExpectBitIdentical(got, want);
      ExpectSameCounters((*parallel)->counters(), (*serial)->counters());
    }
  }
}

TEST(ParallelEquivalence, ForcedIntersectionKernelsBitIdentical) {
  // The vector intersection kernel feeds ComputePairScores and the
  // overlap counting every detector consumes; dispatch choice (scalar,
  // galloping, SIMD) must never leak into results. Forcing each kernel
  // for a full detector round over every registered detector pins the
  // SIMD-vs-portable seam at the output level, not just the kernel
  // level (intersect_test.cc covers that).
  using intersect_internal::ForceKernelForTest;
  using intersect_internal::Kernel;
  testutil::World world = testutil::SmallWorld(608, 35, 250);
  testutil::WorldInput wi(world);
  DetectionInput in = wi.Input(world);

  struct KernelReset {
    ~KernelReset() { ForceKernelForTest(Kernel::kAuto); }
  } reset;

  for (const std::string& name : ListDetectors()) {
    SCOPED_TRACE(name);
    ForceKernelForTest(Kernel::kScalar);
    auto scalar_det = CreateDetector(name, PaperParams());
    ASSERT_TRUE(scalar_det.ok());
    CopyResult want;
    ASSERT_TRUE((*scalar_det)->DetectRound(in, 1, &want).ok());

    std::vector<Kernel> others = {Kernel::kGalloping, Kernel::kAuto};
    if (intersect_internal::SimdAvailable()) {
      others.push_back(Kernel::kSimd);
    }
    for (Kernel kernel : others) {
      ForceKernelForTest(kernel);
      auto det = CreateDetector(name, PaperParams());
      ASSERT_TRUE(det.ok());
      CopyResult got;
      ASSERT_TRUE((*det)->DetectRound(in, 1, &got).ok());
      ExpectBitIdentical(got, want);
    }
    ForceKernelForTest(Kernel::kAuto);
  }
}

TEST(ParallelEquivalence, MoreThreadsThanEntriesDegenerateCase) {
  // The running example has only a handful of index entries; a 64-way
  // executor leaves most shards empty and must still be exact.
  testutil::ExampleFixture fx;
  for (const char* name :
       {"pairwise", "index", "bound", "boundplus", "hybrid"}) {
    SCOPED_TRACE(name);
    CheckDetectorEquivalence(name, fx.Input(), 64);
  }
}

}  // namespace
}  // namespace copydetect
