// The adversarial scenario library (datagen/scenarios.h) and its
// quality harness (eval/quality.h).
//
// Three guarantees:
//  * stream soundness — replaying a scenario's deltas over its
//    initial snapshot with Dataset::Apply reproduces the final world
//    bit-identically, and the same stream pushed through
//    Session::Update lands on the same fused report as a cold run on
//    the final world;
//  * determinism — same (name, scale, seed) means the same scenario;
//  * quality floors — every (scenario, detector) pair is its own
//    ctest entry (value-parameterized) asserting the detection
//    recall/precision and fusion accuracy the committed QUALITY.json
//    baseline relies on, so a quality regression fails here before
//    the CI gate even runs.
#include "datagen/scenarios.h"

#include <gtest/gtest.h>

#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "copydetect/session.h"
#include "eval/quality.h"

namespace copydetect {
namespace {

constexpr double kScale = 0.5;
constexpr uint64_t kSeed = 7;

void ExpectSameDataset(const Dataset& a, const Dataset& b) {
  ASSERT_EQ(a.num_sources(), b.num_sources());
  ASSERT_EQ(a.num_items(), b.num_items());
  ASSERT_EQ(a.num_slots(), b.num_slots());
  ASSERT_EQ(a.num_observations(), b.num_observations());
  for (SourceId s = 0; s < a.num_sources(); ++s) {
    EXPECT_EQ(a.source_name(s), b.source_name(s)) << "source " << s;
  }
  for (SlotId v = 0; v < a.num_slots(); ++v) {
    EXPECT_EQ(a.slot_value(v), b.slot_value(v)) << "slot " << v;
    EXPECT_EQ(a.slot_item(v), b.slot_item(v)) << "slot " << v;
    std::span<const SourceId> pa = a.providers(v);
    std::span<const SourceId> pb = b.providers(v);
    ASSERT_EQ(pa.size(), pb.size()) << "slot " << v;
    for (size_t i = 0; i < pa.size(); ++i) {
      EXPECT_EQ(pa[i], pb[i]) << "slot " << v;
    }
  }
}

TEST(Scenarios, NamesAreSortedAndResolvable) {
  std::vector<std::string> names = ScenarioNames();
  ASSERT_GE(names.size(), 4u);
  EXPECT_TRUE(std::is_sorted(names.begin(), names.end()));
  for (const std::string& name : names) {
    auto scenario = MakeScenario(name, kScale, kSeed);
    ASSERT_TRUE(scenario.ok()) << name << ": "
                               << scenario.status().ToString();
    EXPECT_EQ(scenario->name, name);
  }
}

TEST(Scenarios, UnknownNameIsNotFound) {
  auto scenario = MakeScenario("no-such-scenario", kScale, kSeed);
  ASSERT_FALSE(scenario.ok());
  EXPECT_EQ(scenario.status().code(), StatusCode::kNotFound);
  // The error lists the registered names, --detector=help style.
  EXPECT_NE(scenario.status().message().find("adaptive-switch"),
            std::string::npos)
      << scenario.status().message();
}

TEST(Scenarios, EveryScenarioEmitsGoldAndPlantedPairs) {
  for (const std::string& name : ScenarioNames()) {
    SCOPED_TRACE(name);
    auto scenario = MakeScenario(name, kScale, kSeed);
    ASSERT_TRUE(scenario.ok());
    EXPECT_GT(scenario->world.gold.size(), 0u);
    EXPECT_FALSE(scenario->world.copy_pairs.empty());
    EXPECT_GT(scenario->world.data.num_observations(), 0u);
    ASSERT_EQ(scenario->world.true_accuracy.size(),
              scenario->world.data.num_sources());
    for (double accuracy : scenario->world.true_accuracy) {
      EXPECT_GT(accuracy, 0.0);
      EXPECT_LE(accuracy, 1.0);
    }
  }
}

TEST(Scenarios, DeltaStreamsAreNonTrivial) {
  // noisy-copier is pure generation (no stream); the other three are
  // about what arrives over time and must carry deltas.
  for (const char* name :
       {"adaptive-switch", "churn-feed", "collusion-ring"}) {
    SCOPED_TRACE(name);
    auto scenario = MakeScenario(name, kScale, kSeed);
    ASSERT_TRUE(scenario.ok());
    EXPECT_FALSE(scenario->deltas.empty());
    for (const DatasetDelta& delta : scenario->deltas) {
      EXPECT_FALSE(delta.empty());
      CD_CHECK_OK(delta.Validate());
    }
  }
}

TEST(Scenarios, ApplyingDeltasReproducesTheFinalWorld) {
  for (const std::string& name : ScenarioNames()) {
    SCOPED_TRACE(name);
    auto scenario = MakeScenario(name, kScale, kSeed);
    ASSERT_TRUE(scenario.ok());
    Dataset current = scenario->initial;
    for (const DatasetDelta& delta : scenario->deltas) {
      auto applied = current.Apply(delta);
      CD_CHECK_OK(applied.status());
      current = std::move(applied).value().data;
    }
    ExpectSameDataset(current, scenario->world.data);
    // The canonical layout means a from-scratch rebuild agrees too.
    ExpectSameDataset(RebuildFromScratch(current),
                      scenario->world.data);
  }
}

TEST(Scenarios, SameSeedSameScenarioDifferentSeedDifferent) {
  auto a = MakeScenario("adaptive-switch", kScale, kSeed);
  auto b = MakeScenario("adaptive-switch", kScale, kSeed);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  ExpectSameDataset(a->world.data, b->world.data);
  ASSERT_EQ(a->deltas.size(), b->deltas.size());
  EXPECT_EQ(a->world.copy_pairs, b->world.copy_pairs);

  auto c = MakeScenario("adaptive-switch", kScale, kSeed + 1);
  ASSERT_TRUE(c.ok());
  EXPECT_FALSE(c->world.data.num_observations() ==
                   a->world.data.num_observations() &&
               c->world.copy_pairs == a->world.copy_pairs);
}

TEST(Scenarios, UpdateStreamMatchesColdRunOnFinalWorld) {
  // The scenario streams are exactly what Session::Update exists for:
  // feeding them through an online session must land on the same
  // fused truth as a cold run over the final world.
  for (const char* name :
       {"adaptive-switch", "churn-feed", "collusion-ring"}) {
    SCOPED_TRACE(name);
    auto scenario = MakeScenario(name, kScale, kSeed);
    ASSERT_TRUE(scenario.ok());

    SessionOptions options;
    options.detector = "index";
    options.n = scenario->world.suggested_n;
    options.online_updates = true;
    auto session = Session::Create(options);
    CD_CHECK_OK(session.status());
    CD_CHECK_OK(session->Run(scenario->initial).status());
    for (const DatasetDelta& delta : scenario->deltas) {
      CD_CHECK_OK(session->Update(delta));
    }

    SessionOptions cold_options = options;
    cold_options.online_updates = false;
    auto cold = Session::Create(cold_options);
    CD_CHECK_OK(cold.status());
    auto cold_report = cold->Run(scenario->world.data);
    CD_CHECK_OK(cold_report.status());

    const FusionResult& got = session->report().fusion;
    const FusionResult& want = cold_report->fusion;
    EXPECT_EQ(got.rounds, want.rounds);
    EXPECT_EQ(got.truth, want.truth);
    ASSERT_EQ(got.accuracies.size(), want.accuracies.size());
    for (size_t s = 0; s < want.accuracies.size(); ++s) {
      EXPECT_EQ(got.accuracies[s], want.accuracies[s]) << "source "
                                                       << s;
    }
  }
}

// ---------------------------------------------------------------------
// Quality floors, one ctest entry per (scenario, detector) pair. The
// floors sit safely under the committed QUALITY.json baseline (the CI
// gate holds the exact values; these catch a collapse even when the
// baseline file is being regenerated).

struct QualityFloor {
  double recall;
  double precision;
  double accuracy;
};

QualityFloor FloorFor(const std::string& scenario) {
  // Recall is the headline: the planted copiers must be found. The
  // precision floors reflect that co-occurring false values make
  // over-reporting expected on these adversarial feeds (precision is
  // scored against the clique closure).
  if (scenario == "adaptive-switch") return {0.95, 0.30, 0.90};
  if (scenario == "churn-feed") return {0.95, 0.15, 0.90};
  if (scenario == "collusion-ring") return {0.95, 0.20, 0.90};
  return {0.95, 0.12, 0.90};  // noisy-copier
}

class ScenarioQuality
    : public ::testing::TestWithParam<
          std::tuple<std::string, std::string>> {};

TEST_P(ScenarioQuality, MeetsFloor) {
  const auto& [scenario_name, detector_name] = GetParam();
  auto scenario = MakeScenario(scenario_name, kScale, kSeed);
  ASSERT_TRUE(scenario.ok()) << scenario.status().ToString();
  // The quality gate's configuration (bench/quality_sweep): the
  // paper's alpha/s with n matched to the generator's false pool.
  SessionOptions options;
  options.detector = detector_name;
  options.n = scenario->world.suggested_n;
  options.max_rounds = 8;
  options.epsilon = 1e-4;
  auto session = Session::Create(options);
  ASSERT_TRUE(session.ok()) << session.status().ToString();
  auto report = session->Run(scenario->world.data);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  const ScenarioResult result = ScoreScenario(*scenario, report->fusion);

  const QualityFloor floor = FloorFor(scenario_name);
  EXPECT_GE(result.pairs.recall, floor.recall);
  EXPECT_GE(result.pairs.precision, floor.precision);
  EXPECT_GE(result.fusion_accuracy, floor.accuracy);
  EXPECT_GT(result.pairs.output_pairs, 0u);
  EXPECT_TRUE(result.converged || result.rounds > 0);
}

INSTANTIATE_TEST_SUITE_P(
    AllScenariosAllDetectors, ScenarioQuality,
    ::testing::Combine(
        ::testing::Values("adaptive-switch", "churn-feed",
                          "collusion-ring", "noisy-copier"),
        ::testing::Values("pairwise", "index", "hybrid",
                          "incremental")),
    [](const auto& info) {
      std::string name = std::get<0>(info.param) + "_" +
                         std::get<1>(info.param);
      for (char& c : name) {
        if (c == '-') c = '_';
      }
      return name;
    });

}  // namespace
}  // namespace copydetect
