// End-to-end pipeline tests: generator -> detector -> fusion -> metrics,
// checking the paper's qualitative claims on a reduced Book-CS world.
#include <gtest/gtest.h>

#include "copydetect/session.h"

namespace copydetect {
namespace {

class PipelineTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    auto world = MakeWorldByName("book-cs", 0.3, 7);
    ASSERT_TRUE(world.ok());
    world_ = new World(std::move(world).value());

    auto pairwise = Run(Options("pairwise"));
    ASSERT_TRUE(pairwise.ok());
    pairwise_ = new Report(std::move(pairwise).value());
  }

  static void TearDownTestSuite() {
    delete world_;
    delete pairwise_;
    world_ = nullptr;
    pairwise_ = nullptr;
  }

  /// The suite's configuration: the paper's parameters, 8 rounds.
  static SessionOptions Options(const std::string& detector) {
    SessionOptions options;
    options.detector = detector;
    options.max_rounds = 8;
    return options;
  }

  static StatusOr<Report> Run(const SessionOptions& options) {
    auto session = Session::Create(options);
    if (!session.ok()) return session.status();
    return session->Run(world_->data);
  }

  static World* world_;
  static Report* pairwise_;
};

World* PipelineTest::world_ = nullptr;
Report* PipelineTest::pairwise_ = nullptr;

TEST_F(PipelineTest, PairwiseFindsPlantedCopiers) {
  // Copier pairs are detectable only via shared *false* values; with
  // Book-CS's tiny per-source coverage a scaled-down world leaves some
  // planted pairs with almost no overlap, capping attainable recall.
  PrfScores prf =
      ComparePairsToTruth(pairwise_->fusion.copies, world_->copy_pairs);
  EXPECT_GE(prf.recall, 0.55);
}

TEST_F(PipelineTest, IndexMatchesPairwiseExactly) {
  auto outcome = Run(Options("index"));
  ASSERT_TRUE(outcome.ok());
  PrfScores prf = ComparePairs(outcome->fusion.copies,
                               pairwise_->fusion.copies);
  EXPECT_EQ(prf.f1, 1.0);
  EXPECT_EQ(FusionDifference(world_->data, outcome->fusion.truth,
                             pairwise_->fusion.truth),
            0.0);
  EXPECT_LT(outcome->counters.Total(), pairwise_->counters.Total());
}

TEST_F(PipelineTest, HybridCloseToPairwise) {
  auto outcome = Run(Options("hybrid"));
  ASSERT_TRUE(outcome.ok());
  PrfScores prf = ComparePairs(outcome->fusion.copies,
                               pairwise_->fusion.copies);
  EXPECT_GE(prf.f1, 0.9);
  EXPECT_LE(FusionDifference(world_->data, outcome->fusion.truth,
                             pairwise_->fusion.truth),
            0.05);
}

TEST_F(PipelineTest, IncrementalCloseToPairwiseAndCheaperThanHybrid) {
  auto incremental = Run(Options("incremental"));
  auto hybrid = Run(Options("hybrid"));
  ASSERT_TRUE(incremental.ok());
  ASSERT_TRUE(hybrid.ok());
  PrfScores prf = ComparePairs(incremental->fusion.copies,
                               pairwise_->fusion.copies);
  EXPECT_GE(prf.f1, 0.85);
  // Fewer computations over the full run (the rounds >= 3 savings).
  EXPECT_LT(incremental->counters.Total(), hybrid->counters.Total());
}

TEST_F(PipelineTest, ScaleSampleStillFindsCopiers) {
  SessionOptions options = Options("incremental");
  options.sample_method = SamplingMethod::kScaleSample;
  options.sample_rate = 0.1;
  auto outcome = Run(options);
  ASSERT_TRUE(outcome.ok());
  // Sampling on low-coverage noisy data trades detection quality for
  // speed (Table IX's point); a sizable fraction of PAIRWISE's pairs
  // must survive, but parity is not expected.
  PrfScores prf = ComparePairs(outcome->fusion.copies,
                               pairwise_->fusion.copies);
  EXPECT_GE(prf.f1, 0.4);
  PrfScores truth_prf =
      ComparePairsToTruth(outcome->fusion.copies, world_->copy_pairs);
  EXPECT_GE(truth_prf.recall, 0.5);
}

TEST_F(PipelineTest, CopyAwareFusionBeatsAccuracyOnlyOnGold) {
  SessionOptions no_copy = Options("pairwise");
  no_copy.use_copy_detection = false;
  auto naive = Run(no_copy);
  ASSERT_TRUE(naive.ok());
  double aware_acc =
      world_->gold.Accuracy(world_->data, pairwise_->fusion.truth);
  double naive_acc =
      world_->gold.Accuracy(world_->data, naive->fusion.truth);
  // Copy-awareness must not hurt, and with planted copier cliques it
  // should help.
  EXPECT_GE(aware_acc + 1e-9, naive_acc);
}

TEST_F(PipelineTest, FusionAccuracyIsHigh) {
  double acc = world_->full_truth.Accuracy(world_->data,
                                           pairwise_->fusion.truth);
  EXPECT_GE(acc, 0.8);
}

}  // namespace
}  // namespace copydetect
