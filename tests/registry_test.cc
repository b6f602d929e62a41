// The detector table: every built-in resolves and builds under its
// canonical name, the listing is sorted and duplicate-free, and the
// legacy aliases resolve to their canonical rows.
#include "core/detector_registry.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <typeindex>
#include <utility>

#include "core/fagin_input.h"
#include "core/hybrid.h"
#include "core/incremental.h"
#include "core/index_algo.h"
#include "core/pairwise.h"
#include "test_util.h"

namespace copydetect {
namespace {

// Every built-in must be registered under exactly this canonical
// spelling.
const char* const kBuiltins[] = {
    "pairwise", "index",       "bound",       "boundplus",
    "hybrid",   "incremental", "fagin-input",
};

TEST(DetectorRegistry, EveryBuiltinResolvesAndRoundTripsName) {
  // Each row builds its own algorithm (BOUND and BOUND+ share a class).
  const std::pair<const char*, std::type_index> kRows[] = {
      {"pairwise", typeid(PairwiseDetector)},
      {"index", typeid(IndexDetector)},
      {"bound", typeid(BoundDetector)},
      {"boundplus", typeid(BoundDetector)},
      {"hybrid", typeid(HybridDetector)},
      {"incremental", typeid(IncrementalDetector)},
      {"fagin-input", typeid(FaginInputDetector)},
  };
  ASSERT_EQ(std::size(kRows), std::size(kBuiltins));
  for (const auto& [name, type] : kRows) {
    SCOPED_TRACE(name);
    EXPECT_EQ(ResolveDetector(name), name);
    auto detector = CreateDetector(name, DetectionParams());
    ASSERT_TRUE(detector.ok()) << detector.status().ToString();
    ASSERT_NE(*detector, nullptr);
    const CopyDetector& made = **detector;
    EXPECT_EQ(std::type_index(typeid(made)), type);
  }
}

TEST(DetectorRegistry, ListDetectorsIsSortedCanonicalSet) {
  std::vector<std::string> names = ListDetectors();
  EXPECT_TRUE(std::is_sorted(names.begin(), names.end()));
  EXPECT_EQ(names.size(), std::size(kBuiltins));
  for (const char* name : kBuiltins) {
    EXPECT_NE(std::find(names.begin(), names.end(), name), names.end())
        << name;
  }
  // Aliases are accepted for lookup but never listed.
  EXPECT_EQ(std::find(names.begin(), names.end(), "bound+"),
            names.end());
  EXPECT_EQ(std::find(names.begin(), names.end(), "parallel-index"),
            names.end());
}

TEST(DetectorRegistry, ListDetectorsHasNoDuplicates) {
  std::vector<std::string> names = ListDetectors();
  EXPECT_EQ(std::adjacent_find(names.begin(), names.end()), names.end());
}

TEST(DetectorRegistry, LegacyBoundPlusAliasResolves) {
  EXPECT_EQ(ResolveDetector("bound+"), "boundplus");
  auto detector = CreateDetector("bound+", DetectionParams());
  ASSERT_TRUE(detector.ok());
  ASSERT_NE(*detector, nullptr);
}

TEST(DetectorRegistry, ParallelIndexAliasResolvesToIndex) {
  EXPECT_EQ(ResolveDetector("parallel-index"), "index");
  auto detector = CreateDetector("parallel-index", DetectionParams());
  ASSERT_TRUE(detector.ok());
  ASSERT_NE(*detector, nullptr);
  const CopyDetector& made = **detector;
  EXPECT_EQ(std::type_index(typeid(made)),
            std::type_index(typeid(IndexDetector)));
}

TEST(DetectorRegistry, EveryDetectorRefusesAnIncompleteInput) {
  // Every detector validates its input before reading any of it: with
  // one field unset, DetectRound fails cleanly instead of crashing.
  const std::pair<const char*, void (*)(DetectionInput*)> kUnset[] = {
      {"data", [](DetectionInput* in) { in->data = nullptr; }},
      {"overlaps", [](DetectionInput* in) { in->overlaps = nullptr; }},
      {"value_probs",
       [](DetectionInput* in) { in->value_probs = nullptr; }},
      {"accuracies", [](DetectionInput* in) { in->accuracies = nullptr; }},
  };
  testutil::ExampleFixture fx;
  for (const std::string& name : ListDetectors()) {
    for (const auto& [field, unset] : kUnset) {
      SCOPED_TRACE(name + " without " + field);
      DetectionInput in = fx.Input();
      unset(&in);
      auto detector = CreateDetector(name, testutil::PaperParams());
      ASSERT_TRUE(detector.ok());
      CopyResult out;
      EXPECT_EQ((*detector)->DetectRound(in, 1, &out).code(),
                StatusCode::kInvalidArgument);
    }
  }
}

TEST(DetectorRegistry, UnknownNameErrorListsRegistry) {
  EXPECT_EQ(ResolveDetector("typo"), "");
  EXPECT_EQ(ResolveDetector(""), "");
  auto made = CreateDetector("typo", DetectionParams());
  ASSERT_FALSE(made.ok());
  EXPECT_EQ(made.status().code(), StatusCode::kNotFound);
  EXPECT_NE(made.status().message().find("available:"),
            std::string::npos);
  for (const char* name : kBuiltins) {
    EXPECT_NE(made.status().message().find(name), std::string::npos)
        << name;
  }
}

}  // namespace
}  // namespace copydetect
