// Report::ToJson against the tree-building rendering it replaced.
// The streaming writer must reproduce those bytes exactly: the serving
// recovery smoke, the snapshot suites and every published report
// compare them across processes and versions. Both sides share the
// escaper and the number formatter; tests/json_test.cc holds those to
// fixed spellings and to the printf/strtod loop they replaced.
#include <cmath>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/json.h"
#include "copydetect/session.h"
#include "eval/experiment.h"

namespace copydetect {
namespace {

/// The pre-streaming Report::ToJson, kept verbatim as the byte oracle:
/// a JsonValue tree of the whole report, dumped once.
std::string ReferenceToJson(const Report& report, const Dataset& data) {
  const FusionResult& fusion = report.fusion;
  const CopyGraph& graph = report.graph;
  JsonValue root = JsonValue::Object();
  root.Set("detector", JsonValue::Str(report.detector));
  root.Set("threads", JsonValue::Uint64(report.threads));
  root.Set("rounds", JsonValue::Int64(fusion.rounds));
  root.Set("converged", JsonValue::Bool(fusion.converged));
  root.Set("num_sources", JsonValue::Uint64(data.num_sources()));
  root.Set("num_items", JsonValue::Uint64(data.num_items()));

  JsonValue truth_arr = JsonValue::Array();
  for (size_t item = 0; item < fusion.truth.size(); ++item) {
    SlotId slot = fusion.truth[item];
    JsonValue entry = JsonValue::Object();
    entry.Set("item",
              JsonValue::Str(data.item_name(static_cast<ItemId>(item))));
    if (slot == kInvalidSlot) {
      entry.Set("value", JsonValue::Null());
      entry.Set("probability", JsonValue::Null());
    } else {
      entry.Set("value", JsonValue::Str(data.slot_value(slot)));
      entry.Set("probability",
                JsonValue::Double(slot < fusion.value_probs.size()
                                      ? fusion.value_probs[slot]
                                      : 0.0));
    }
    truth_arr.Append(std::move(entry));
  }
  root.Set("truth", std::move(truth_arr));

  JsonValue acc_arr = JsonValue::Array();
  for (size_t s = 0; s < fusion.accuracies.size(); ++s) {
    acc_arr.Append(
        JsonValue::Object()
            .Set("source",
                 JsonValue::Str(data.source_name(static_cast<SourceId>(s))))
            .Set("accuracy", JsonValue::Double(fusion.accuracies[s])));
  }
  root.Set("accuracies", std::move(acc_arr));

  // The pair map iterates in table order; sort by (a, b) so the bytes
  // are independent of hash layout.
  struct Pair {
    SourceId a;
    SourceId b;
    PairPosterior p;
  };
  std::vector<Pair> pairs;
  pairs.reserve(fusion.copies.NumTracked());
  fusion.copies.ForEach(
      [&pairs](SourceId a, SourceId b, const PairPosterior& p) {
        if (p.IsCopying()) pairs.push_back({a, b, p});
      });
  std::sort(pairs.begin(), pairs.end(), [](const Pair& x, const Pair& y) {
    return x.a != y.a ? x.a < y.a : x.b < y.b;
  });
  JsonValue copies_arr = JsonValue::Array();
  for (const Pair& pr : pairs) {
    copies_arr.Append(
        JsonValue::Object()
            .Set("a", JsonValue::Str(data.source_name(pr.a)))
            .Set("b", JsonValue::Str(data.source_name(pr.b)))
            .Set("p_indep", JsonValue::Double(pr.p.p_indep))
            .Set("p_a_copies_b", JsonValue::Double(pr.p.p_first_copies))
            .Set("p_b_copies_a", JsonValue::Double(pr.p.p_second_copies)));
  }
  root.Set("copies", std::move(copies_arr));

  JsonValue clusters_arr = JsonValue::Array();
  for (const CopyCluster& cluster : graph.clusters) {
    JsonValue members = JsonValue::Array();
    for (SourceId m : cluster.members) {
      members.Append(JsonValue::Str(data.source_name(m)));
    }
    JsonValue edges = JsonValue::Array();
    for (const ClassifiedEdge& e : cluster.edges) {
      const char* kind = e.kind == EdgeKind::kDirect     ? "direct"
                         : e.kind == EdgeKind::kCoCopy ? "co-copy"
                                                         : "indirect";
      edges.Append(
          JsonValue::Object()
              .Set("a", JsonValue::Str(data.source_name(e.a)))
              .Set("b", JsonValue::Str(data.source_name(e.b)))
              .Set("kind", JsonValue::Str(kind))
              .Set("p_a_copies_b", JsonValue::Double(e.pr_a_copies_b))
              .Set("p_b_copies_a", JsonValue::Double(e.pr_b_copies_a)));
    }
    JsonValue cl = JsonValue::Object();
    cl.Set("original", cluster.original == kInvalidSource
                           ? JsonValue::Null()
                           : JsonValue::Str(
                                 data.source_name(cluster.original)));
    cl.Set("members", std::move(members));
    cl.Set("edges", std::move(edges));
    clusters_arr.Append(std::move(cl));
  }
  root.Set("clusters", std::move(clusters_arr));

  // Deliberately absent: the timing fields of FusionResult (wall time
  // is never deterministic) and the detector counters (per-run, reset
  // to zero by Session::Load — including them would make a reloaded
  // session render differently from the one that wrote the snapshot).
  return root.Dump();
}

Report RunReport(const Dataset& data, const std::string& detector,
                 double n) {
  SessionOptions options;
  options.detector = detector;
  options.n = n;
  auto session = Session::Create(options);
  CD_CHECK_OK(session.status());
  auto report = session->Run(data);
  CD_CHECK_OK(report.status());
  return std::move(report).value();
}

/// Renders `profile` under each detector both ways and byte-compares.
void ExpectProfileMatches(const std::string& profile, double scale) {
  auto world = MakeWorldByName(profile, scale, 7);
  CD_CHECK_OK(world.status());
  for (const char* detector : {"hybrid", "index", "pairwise"}) {
    SCOPED_TRACE(profile + " / " + detector);
    const Report report =
        RunReport(world->data, detector, world->suggested_n);
    const std::string expected = ReferenceToJson(report, world->data);
    // Every section must have entries for the comparison to cover it.
    EXPECT_EQ(expected.find("\"copies\":[]"), std::string::npos);
    EXPECT_EQ(expected.find("\"clusters\":[]"), std::string::npos);
    const std::string streamed = report.ToJson(world->data);
    ASSERT_EQ(streamed.size(), expected.size());
    EXPECT_TRUE(streamed == expected);
  }
}

TEST(ReportJson, BookFullMatchesTreeRendering) {
  ExpectProfileMatches("book-full", 0.05);
}

TEST(ReportJson, Stock1DayMatchesTreeRendering) {
  ExpectProfileMatches("stock-1day", 0.05);
}

TEST(ReportJson, BookCsMatchesTreeRendering) {
  ExpectProfileMatches("book-cs", 0.1);
}

// Names that need every kind of escaping, an item without a truth, a
// cluster without an elected original and numbers the formatter
// spells specially (non-finite, -0, subnormal, exponent forms).
TEST(ReportJson, AwkwardNamesAndEdgeCasesMatchTreeRendering) {
  const std::vector<std::string> sources = {
      "quote\"source", "back\\slash", "new\nline", "ctl\x01one",
      "ctl\x1f" "last", "caf\xc3\xa9 \xe2\x82\xac \xf0\x9f\x98\x80"};
  const std::vector<std::string> items = {
      "item \"a\"", "item\\b", "item\nc", "item\x01", "\xe6\x97\xa5\x1f"};
  DatasetBuilder builder;
  for (size_t s = 0; s < sources.size(); ++s) {
    for (size_t i = 0; i < items.size(); ++i) {
      // Sources 0..2 copy each other; the rest disagree.
      const std::string value =
          s < 3 ? "v\"" + std::to_string(i) + "\\\n\x01"
                : "caf\xc3\xa9-" + std::to_string(i * 7 + s) + "\x1f";
      builder.Add(sources[s], items[i], value);
    }
  }
  auto data = builder.Build();
  CD_CHECK_OK(data.status());
  Report report = RunReport(*data, "index", 10.0);
  report.detector = "in\"dex\\\n";

  // An item without a truth, and a truth slot past value_probs.
  ASSERT_GE(report.fusion.truth.size(), 3u);
  report.fusion.truth[1] = kInvalidSlot;
  report.fusion.truth[2] = static_cast<SlotId>(data->num_slots() - 1);
  report.fusion.value_probs.resize(data->num_slots() - 1);
  if (report.fusion.truth[0] != kInvalidSlot) {
    report.fusion.value_probs[report.fusion.truth[0]] =
        std::numeric_limits<double>::quiet_NaN();
  }
  report.fusion.accuracies[0] = -0.0;
  report.fusion.accuracies[1] = std::numeric_limits<double>::denorm_min();
  report.fusion.accuracies[2] = 1e-05;
  report.fusion.accuracies[3] = std::numeric_limits<double>::infinity();

  report.fusion.copies.Set(3, 4, {0.25, 1e+16, 0.0001});
  report.fusion.copies.Set(0, 5, {0.5, 0.125, -0.0});
  report.fusion.copies.Set(1, 4, {0.75, 0.1, 0.15});  // not copying
  CopyCluster orphan;
  orphan.members = {3, 4, 5};
  orphan.original = kInvalidSource;
  orphan.edges = {{3, 4, EdgeKind::kDirect, 0.5, 1e+17},
                  {3, 5, EdgeKind::kCoCopy, 1.0 / 3.0, 0.0},
                  {4, 5, EdgeKind::kIndirect, 2e-308, 5e-324}};
  report.graph.clusters.push_back(orphan);
  CopyCluster elected;
  elected.members = {0, 1};
  elected.original = 1;
  elected.edges = {{0, 1, EdgeKind::kDirect, 0.9, 0.05}};
  report.graph.clusters.push_back(elected);
  report.graph.clusters.push_back(CopyCluster());  // no members

  const std::string expected = ReferenceToJson(report, *data);
  EXPECT_EQ(report.ToJson(*data), expected);
  // The rendering stays valid JSON that reads back to the names.
  auto parsed = ParseJson(expected);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->Find("accuracies")->items()[5].GetString("source"),
            sources[5]);
}

}  // namespace
}  // namespace copydetect
