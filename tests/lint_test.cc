// Golden tests for copydetect_lint (tools/lint): every rule has a
// fixture file under tests/data/lint/ with planted violations, and the
// scan must report exactly those rule ids at exactly those lines.
#include "lint.h"

#include <string>
#include <vector>

#include <gtest/gtest.h>

namespace copydetect::lint {
namespace {

std::string Key(const Finding& f) {
  return f.file + ":" + std::to_string(f.line) + ":" + f.rule;
}

std::vector<std::string> Keys(const std::vector<Finding>& findings) {
  std::vector<std::string> out;
  out.reserve(findings.size());
  for (const Finding& f : findings) out.push_back(Key(f));
  return out;
}

constexpr char kFixtureRoot[] = CD_TEST_DATA_DIR "/lint";

TEST(LintTree, FindsEveryPlantedViolationExactly) {
  Options options;
  options.root = kFixtureRoot;
  const std::vector<std::string> expected = {
      "bench/app_layering.cc:4:layering",
      "bench/retired_detector_names.cc:6:deprecated-shim",
      "bench/retired_detector_names.cc:7:deprecated-shim",
      "bench/retired_detector_names.cc:8:deprecated-shim",
      "bench/retired_detector_names.cc:9:deprecated-shim",
      "bench/retired_detector_names.cc:10:deprecated-shim",
      "bench/retired_detector_names.cc:11:deprecated-shim",
      "bench/retired_detector_names.cc:13:deprecated-shim",
      "bench/retired_detector_names.cc:14:deprecated-shim",
      "bench/retired_detector_names.cc:15:deprecated-shim",
      "bench/retired_detector_names.cc:16:deprecated-shim",
      "bench/retired_detector_names.cc:17:deprecated-shim",
      "bench/retired_detector_names.cc:18:deprecated-shim",
      "bench/retired_detector_names.cc:19:deprecated-shim",
      "bench/retired_detector_names.cc:20:deprecated-shim",
      "bench/retired_detector_names.cc:21:deprecated-shim",
      "bench/retired_detector_names.cc:22:deprecated-shim",
      "bench/retired_detector_names.cc:23:deprecated-shim",
      "bench/retired_detector_names.cc:24:deprecated-shim",
      "bench/retired_detector_names.cc:25:deprecated-shim",
      "bench/retired_detector_names.cc:26:deprecated-shim",
      "bench/retired_detector_names.cc:27:deprecated-shim",
      "bench/retired_detector_names.cc:28:deprecated-shim",
      "src/api/banned_assert.cc:5:banned-assert",
      "src/api/deprecated_load.cc:5:deprecated-shim",
      "src/common/deprecated_flagparser.cc:5:deprecated-shim",
      "src/common/stringutil.h:4:deprecated-shim",
      "src/core/banned_new.cc:5:banned-new-delete",
      "src/core/banned_new.cc:6:banned-new-delete",
      "src/core/banned_rng.cc:6:banned-rng",
      "src/core/banned_rng.cc:7:banned-rng",
      "src/core/banned_rng.cc:8:banned-rng",
      "src/core/layering_violation.cc:3:layering",
      "src/core/nonfixed_reduction.cc:7:nonfixed-reduction",
      "src/core/nonfixed_reduction.cc:10:nonfixed-reduction",
      "src/core/pointer_keyed.cc:6:pointer-keyed",
      "src/core/suppression_bad.cc:5:suppression",
      "src/core/suppression_bad.cc:7:suppression",
      "src/core/suppression_bad.cc:9:suppression",
      "src/core/unordered_iteration.cc:8:unordered-iteration",
      "src/core/unordered_iteration.cc:10:unordered-iteration",
      "src/model/counts.cc:7:unordered-iteration",
      "src/serve/layering_violation.cc:5:layering",
  };
  EXPECT_EQ(Keys(LintTree(options)), expected);
}

TEST(LintTree, CheckFilterRestrictsToLayering) {
  Options options;
  options.root = kFixtureRoot;
  options.checks = {"layering"};
  const std::vector<std::string> expected = {
      "bench/app_layering.cc:4:layering",
      "src/core/layering_violation.cc:3:layering",
      "src/serve/layering_violation.cc:5:layering",
  };
  EXPECT_EQ(Keys(LintTree(options)), expected);
}

TEST(LintTree, DeterminismGroupSelectsItsFourRules) {
  Options options;
  options.root = kFixtureRoot;
  options.checks = {"determinism"};
  const std::vector<std::string> expected = {
      "src/core/banned_rng.cc:6:banned-rng",
      "src/core/banned_rng.cc:7:banned-rng",
      "src/core/banned_rng.cc:8:banned-rng",
      "src/core/nonfixed_reduction.cc:7:nonfixed-reduction",
      "src/core/nonfixed_reduction.cc:10:nonfixed-reduction",
      "src/core/pointer_keyed.cc:6:pointer-keyed",
      "src/core/unordered_iteration.cc:8:unordered-iteration",
      "src/core/unordered_iteration.cc:10:unordered-iteration",
      "src/model/counts.cc:7:unordered-iteration",
  };
  EXPECT_EQ(Keys(LintTree(options)), expected);
}

TEST(LintTree, UnreadableRootIsASingleErrorFinding) {
  Options options;
  options.root = std::string(kFixtureRoot) + "/does-not-exist";
  const std::vector<Finding> findings = LintTree(options);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "error");
}

constexpr char kUnorderedIter[] = R"cc(
#include <unordered_map>
void F() {
  std::unordered_map<int, int> m;
  for (const auto& [k, v] : m) (void)k;
}
)cc";

TEST(LintText, ResultBearingModuleFlagsBucketIteration) {
  Options options;
  const std::vector<std::string> expected = {
      "src/core/x.cc:5:unordered-iteration"};
  EXPECT_EQ(Keys(LintText(options, "src/core/x.cc", kUnorderedIter)),
            expected);
}

TEST(LintText, EvalModuleIsOutsideDeterminismScope) {
  Options options;
  EXPECT_TRUE(LintText(options, "src/eval/x.cc", kUnorderedIter).empty());
}

TEST(LintText, IndexingAnUnorderedMapIsNotIteration) {
  Options options;
  constexpr char kIndexed[] = R"cc(
#include <unordered_map>
#include <vector>
void F() {
  std::unordered_map<int, std::vector<int>> item_ops;
  for (int v : item_ops[3]) (void)v;
}
)cc";
  EXPECT_TRUE(LintText(options, "src/core/x.cc", kIndexed).empty());
}

TEST(LintText, SuppressionOnPrecedingLineCoversOnlyTheNextLine) {
  Options options;
  constexpr char kSuppressed[] = R"cc(
void F() {
  // cd-lint: allow(banned-new-delete) test fixture: allocation under test
  int* p = new int(3);
  delete p;
}
)cc";
  const std::vector<std::string> expected = {
      "src/core/x.cc:5:banned-new-delete"};
  EXPECT_EQ(Keys(LintText(options, "src/core/x.cc", kSuppressed)),
            expected);
}

TEST(LintText, NoCrossHeaderHarvestWithoutATree) {
  Options options;
  // Same shape as the counts.cc fixture: the container lives in the
  // header, which single-file linting cannot resolve.
  constexpr char kMemberIter[] = R"cc(
#include "model/counts.h"
int FixtureTally(const Counts& c) {
  int n = 0;
  for (const auto& [s, v] : c.by_source) n += v;
  return n;
}
)cc";
  EXPECT_TRUE(
      LintText(options, "src/model/counts.cc", kMemberIter).empty());
}

TEST(Finding, FormatIsFileLineRuleMessage) {
  const Finding f{"src/a.cc", 12, "layering", "msg"};
  EXPECT_EQ(f.Format(), "src/a.cc:12: [layering] msg");
}

TEST(RuleEnabled, EmptyChecksEnablesEverythingGroupsExpand) {
  Options all;
  for (const std::string& id : AllRuleIds()) {
    EXPECT_TRUE(RuleEnabled(all, id)) << id;
  }
  Options det;
  det.checks = {"determinism"};
  EXPECT_TRUE(RuleEnabled(det, "banned-rng"));
  EXPECT_TRUE(RuleEnabled(det, "unordered-iteration"));
  EXPECT_FALSE(RuleEnabled(det, "layering"));
  EXPECT_FALSE(RuleEnabled(det, "banned-new-delete"));
  Options banned;
  banned.checks = {"banned"};
  EXPECT_TRUE(RuleEnabled(banned, "banned-new-delete"));
  EXPECT_TRUE(RuleEnabled(banned, "banned-assert"));
  EXPECT_TRUE(RuleEnabled(banned, "deprecated-shim"));
  EXPECT_FALSE(RuleEnabled(banned, "banned-rng"));
}

TEST(LintText, RetiredShimsStayRetired) {
  Options options;
  // The FlagParser identifier is banned in every layer, harnesses
  // included; single-argument Load declarations only in the api layer
  // (the two-argument LoadOptions form is the replacement).
  constexpr char kFlagParser[] = R"cc(
void F(int argc, char** argv) {
  FlagParser parser(argc, argv);
}
)cc";
  const std::vector<std::string> expected = {
      "bench/x.cc:3:deprecated-shim"};
  EXPECT_EQ(Keys(LintText(options, "bench/x.cc", kFlagParser)),
            expected);

  constexpr char kTwoArgLoad[] = R"cc(
struct S {
  static S Load(const std::string& path, int options);
};
)cc";
  EXPECT_TRUE(
      LintText(options, "src/api/x.cc", kTwoArgLoad).empty());
}

}  // namespace
}  // namespace copydetect::lint
