#include "eval/experiment.h"

#include <gtest/gtest.h>

#include "copydetect/session.h"
#include "eval/metrics.h"
#include "eval/table.h"
#include "test_util.h"

namespace copydetect {
namespace {

TEST(MakeWorldByName, KnownNames) {
  for (const char* name :
       {"book-cs", "book-full", "stock-1day", "stock-2wk"}) {
    auto world = MakeWorldByName(name, 0.02, 1);
    ASSERT_TRUE(world.ok()) << name;
    EXPECT_GT(world->data.num_sources(), 0u);
    EXPECT_GT(world->data.num_observations(), 0u);
  }
  auto example = MakeWorldByName("example", 1.0, 1);
  ASSERT_TRUE(example.ok());
  EXPECT_EQ(example->data.num_sources(), 10u);
}

TEST(MakeWorldByName, UnknownNameFails) {
  auto world = MakeWorldByName("mystery", 1.0, 1);
  ASSERT_FALSE(world.ok());
  EXPECT_EQ(world.status().code(), StatusCode::kNotFound);
}

TEST(DefaultSamplingRate, MatchesPaper) {
  EXPECT_EQ(DefaultSamplingRate("stock-2wk"), 0.01);
  EXPECT_EQ(DefaultSamplingRate("book-cs"), 0.1);
  EXPECT_EQ(DefaultSamplingRate("stock-1day"), 0.1);
}

TEST(SessionRun, PairwiseFindsPlantedCopiers) {
  testutil::World world = testutil::SmallWorld(602);
  SessionOptions options;
  options.detector = "pairwise";
  options.max_rounds = 6;
  auto session = Session::Create(options);
  ASSERT_TRUE(session.ok());
  auto report = session->Run(world.data);
  ASSERT_TRUE(report.ok());
  PrfScores prf =
      ComparePairsToTruth(report->fusion.copies, world.copy_pairs);
  EXPECT_GE(prf.recall, 0.7);
}

TEST(TextTable, RendersAligned) {
  TextTable table;
  table.SetHeader({"Method", "Time"});
  table.AddRow({"pairwise", "321"});
  table.AddRow({"index", "1.6"});
  std::string out = table.Render("Table VII");
  EXPECT_NE(out.find("Table VII"), std::string::npos);
  EXPECT_NE(out.find("pairwise"), std::string::npos);
  EXPECT_NE(out.find("Method"), std::string::npos);
  // Column alignment: "Time" starts at the same offset in each line.
  EXPECT_EQ(table.num_rows(), 2u);
}

}  // namespace
}  // namespace copydetect
