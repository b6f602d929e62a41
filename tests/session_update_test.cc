// The online-update acceptance bar: for every registered detector (and
// the accuracy-only baseline), at 1 and 4 threads,
// Session::Update(delta) must produce a report bit-identical to
// rebuilding the merged data set from scratch and Run()ning it on a
// fresh session — patching the maintained overlap counts instead of
// recounting them must not change a bit.
#include "copydetect/session.h"

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

namespace copydetect {
namespace {

void ExpectSameCopies(const CopyResult& got, const CopyResult& want) {
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

/// Bitwise equality of everything semantic a run produces. Timings
/// and detector counters are excluded by design: the update path's
/// point is to do *less* computation for the same output.
void ExpectSameFusion(const FusionResult& got, const FusionResult& want) {
  EXPECT_EQ(got.rounds, want.rounds);
  EXPECT_EQ(got.converged, want.converged);
  ASSERT_EQ(got.value_probs.size(), want.value_probs.size());
  for (size_t v = 0; v < want.value_probs.size(); ++v) {
    EXPECT_EQ(got.value_probs[v], want.value_probs[v]) << "slot " << v;
  }
  ASSERT_EQ(got.accuracies.size(), want.accuracies.size());
  for (size_t s = 0; s < want.accuracies.size(); ++s) {
    EXPECT_EQ(got.accuracies[s], want.accuracies[s]) << "source " << s;
  }
  EXPECT_EQ(got.truth, want.truth);
  ExpectSameCopies(got.copies, want.copies);
}

// The rebuild yardstick is the library's own RebuildFromScratch
// (model/dataset_delta.h): names registered in id order so the two id
// spaces line up and a bitwise comparison is meaningful.

Report RunColdSession(const Dataset& data,
                      const SessionOptions& options) {
  SessionOptions cold = options;
  cold.online_updates = false;
  auto session = Session::Create(cold);
  CD_CHECK_OK(session.status());
  auto report = session->Run(data);
  CD_CHECK_OK(report.status());
  return std::move(report).value();
}

/// The scenario driver: Run on `base`, then apply each delta through
/// Session::Update, comparing the refreshed report against a
/// from-scratch rebuild + cold rerun after every step.
void ExpectUpdateEquivalence(const Dataset& base,
                             const std::vector<DatasetDelta>& deltas,
                             SessionOptions options) {
  options.online_updates = true;
  auto session = Session::Create(options);
  CD_CHECK_OK(session.status());
  auto first = session->Run(base);
  CD_CHECK_OK(first.status());
  // The initial online run must already match a cold run bit for bit
  // (recording and overlap publication must not perturb anything).
  ExpectSameFusion(first->fusion, RunColdSession(base, options).fusion);

  int step = 0;
  for (const DatasetDelta& delta : deltas) {
    SCOPED_TRACE("update step " + std::to_string(step++));
    CD_CHECK_OK(session->Update(delta));
    ASSERT_NE(session->current_data(), nullptr);
    Dataset rebuilt = RebuildFromScratch(*session->current_data());
    Report cold = RunColdSession(rebuilt, options);
    Report updated = session->report();
    ExpectSameFusion(updated.fusion, cold.fusion);
    // The analyzed copy graph is part of the refreshed report too.
    EXPECT_EQ(updated.graph.NumPairs(), cold.graph.NumPairs());
    EXPECT_EQ(updated.graph.NumSources(), cold.graph.NumSources());
  }
}

/// A feed-like delta against the motivating example: overwrite, add,
/// retract, new source, new item.
DatasetDelta ExampleDelta(const Dataset& base) {
  DatasetDelta delta;
  delta.Set(base.source_name(0), base.item_name(0), "Newark");
  delta.Set(base.source_name(0), base.item_name(3), "Tampa");
  delta.Retract(base.source_name(9), base.item_name(4));
  delta.Set("S-feed", base.item_name(1), "Yuma");
  delta.Set(base.source_name(2), "CO", "Denver");
  return delta;
}

/// A follow-up delta exercising the chained path (applies on top of
/// ExampleDelta's result).
DatasetDelta FollowUpDelta(const Dataset& base) {
  DatasetDelta delta;
  delta.Set(base.source_name(4), base.item_name(0), "Trenton");
  delta.Retract(base.source_name(2), "CO");
  delta.Set("S-feed", base.item_name(2), "Albany");
  return delta;
}

SessionOptions ExampleOptions(const std::string& detector,
                              size_t threads) {
  SessionOptions options;
  options.detector = detector;
  options.threads = threads;
  return options;
}

TEST(SessionUpdateEquivalence, EveryDetectorThreads1And4) {
  World world = MotivatingExample();
  const Dataset& base = world.data;
  std::vector<DatasetDelta> deltas = {ExampleDelta(base),
                                      FollowUpDelta(base)};
  for (const std::string& name : ListDetectors()) {
    for (size_t threads : {size_t{1}, size_t{4}}) {
      SCOPED_TRACE(name + " threads=" + std::to_string(threads));
      ExpectUpdateEquivalence(base, deltas,
                              ExampleOptions(name, threads));
    }
  }
}

TEST(SessionUpdateEquivalence, AccuracyOnlyBaseline) {
  World world = MotivatingExample();
  SessionOptions options;
  options.use_copy_detection = false;
  ExpectUpdateEquivalence(world.data, {ExampleDelta(world.data)},
                          options);
}

/// A generated world (planted copiers, realistic shape) with a
/// feed-push delta: the acceptance anchor beyond the toy example, on
/// the detectors with dedicated reuse paths plus the paper's own
/// incremental algorithm.
TEST(SessionUpdateEquivalence, GeneratedWorldKeyDetectors) {
  auto world = MakeWorldByName("book-cs", 0.1, 11);
  CD_CHECK_OK(world.status());
  const Dataset& base = world->data;

  DatasetDelta delta;
  // One source pushes a fresh feed over its first few items...
  std::span<const ItemId> items = base.items_of(3);
  for (size_t i = 0; i < items.size() && i < 5; ++i) {
    delta.Set(base.source_name(3), base.item_name(items[i]),
              "feed-" + std::to_string(i));
  }
  // ...another withdraws a couple of observations...
  std::span<const ItemId> other = base.items_of(7);
  ASSERT_GE(other.size(), 2u);
  delta.Retract(base.source_name(7), base.item_name(other[0]));
  delta.Retract(base.source_name(7), base.item_name(other[1]));
  // ...and a brand-new source appears.
  delta.Set("new-feed", base.item_name(items[0]), "feed-0");

  for (const std::string& name :
       {std::string("pairwise"), std::string("index"),
        std::string("hybrid"), std::string("incremental")}) {
    for (size_t threads : {size_t{1}, size_t{4}}) {
      SCOPED_TRACE(name + " threads=" + std::to_string(threads));
      SessionOptions options = ExampleOptions(name, threads);
      options.n = world->suggested_n;
      ExpectUpdateEquivalence(base, {delta}, options);
    }
  }
}

TEST(SessionUpdate, PairwiseUpdateStatsWithoutOverlapMaintenance) {
  auto world = MakeWorldByName("book-cs", 0.1, 13);
  CD_CHECK_OK(world.status());
  const Dataset& base = world->data;
  SessionOptions options = ExampleOptions("pairwise", 1);
  options.n = world->suggested_n;
  options.online_updates = true;
  auto session = Session::Create(options);
  CD_CHECK_OK(session.status());
  CD_CHECK_OK(session->Run(base).status());

  DatasetDelta delta;
  std::span<const ItemId> items = base.items_of(0);
  delta.Set(base.source_name(0), base.item_name(items[0]), "tiny");
  CD_CHECK_OK(session->Update(delta));
  const UpdateStats& stats = session->last_update_stats();
  EXPECT_TRUE(stats.incremental);
  // Pairwise sessions do not maintain overlap counts (the detector
  // never reads them).
  EXPECT_FALSE(stats.overlaps_maintained);
  EXPECT_EQ(stats.touched_sources, 1u);
  EXPECT_EQ(stats.touched_items, 1u);
  EXPECT_EQ(stats.overwritten_observations, 1u);
}

TEST(SessionUpdate, IndexSessionMaintainsOverlaps) {
  auto world = MakeWorldByName("book-cs", 0.1, 17);
  CD_CHECK_OK(world.status());
  const Dataset& base = world->data;
  SessionOptions options = ExampleOptions("index", 1);
  options.n = world->suggested_n;
  options.online_updates = true;
  auto session = Session::Create(options);
  CD_CHECK_OK(session.status());
  CD_CHECK_OK(session->Run(base).status());

  DatasetDelta delta;  // same source universe: the patchable case
  std::span<const ItemId> items = base.items_of(1);
  delta.Set(base.source_name(1), base.item_name(items[0]), "patched");
  CD_CHECK_OK(session->Update(delta));
  EXPECT_TRUE(session->last_update_stats().incremental);
  EXPECT_TRUE(session->last_update_stats().overlaps_maintained);

  // Growing the source universe forces a recount — still correct,
  // just not patched.
  DatasetDelta grow;
  grow.Set("brand-new", base.item_name(items[0]), "x");
  CD_CHECK_OK(session->Update(grow));
  EXPECT_FALSE(session->last_update_stats().overlaps_maintained);
}

TEST(SessionUpdate, LargeDeltaFallsBackAndStaysEquivalent) {
  World world = MotivatingExample();
  const Dataset& base = world.data;
  SessionOptions options = ExampleOptions("hybrid", 1);
  // Force the fallback for any non-empty delta.
  options.update_rebuild_fraction = 0.0;
  options.online_updates = true;
  auto session = Session::Create(options);
  CD_CHECK_OK(session.status());
  CD_CHECK_OK(session->Run(base).status());
  CD_CHECK_OK(session->Update(ExampleDelta(base)));
  EXPECT_FALSE(session->last_update_stats().incremental);

  Dataset rebuilt = RebuildFromScratch(*session->current_data());
  ExpectSameFusion(session->report().fusion,
                   RunColdSession(rebuilt, options).fusion);
}

TEST(SessionUpdate, SampledSessionUpdatesCorrectly) {
  auto world = MakeWorldByName("book-cs", 0.1, 19);
  CD_CHECK_OK(world.status());
  const Dataset& base = world->data;
  SessionOptions options = ExampleOptions("hybrid", 1);
  options.n = world->suggested_n;
  options.sample_rate = 0.6;
  // Sampling disables the recorder (the sample re-derives from the
  // snapshot), but Update must still work and match the cold path —
  // the sample is a deterministic function of the data.
  std::vector<DatasetDelta> deltas;
  {
    DatasetDelta delta;
    std::span<const ItemId> items = base.items_of(2);
    delta.Set(base.source_name(2), base.item_name(items[0]), "sampled");
    deltas.push_back(std::move(delta));
  }
  ExpectUpdateEquivalence(base, deltas, options);
}

TEST(SessionUpdate, StreamingRunFeedsTheNextUpdate) {
  World world = MotivatingExample();
  const Dataset& base = world.data;
  SessionOptions options = ExampleOptions("index", 1);
  options.online_updates = true;
  auto session = Session::Create(options);
  CD_CHECK_OK(session.status());
  CD_CHECK_OK(session->Start(base));
  while (true) {
    auto stepped = session->Step();
    CD_CHECK_OK(stepped.status());
    if (!*stepped) break;
  }
  CD_CHECK_OK(session->Update(ExampleDelta(base)));
  Dataset rebuilt = RebuildFromScratch(*session->current_data());
  ExpectSameFusion(session->report().fusion,
                   RunColdSession(rebuilt, options).fusion);
}

TEST(SessionUpdate, PreconditionErrors) {
  World world = MotivatingExample();
  const Dataset& base = world.data;
  {
    SessionOptions options = ExampleOptions("hybrid", 1);
    auto session = Session::Create(options);
    CD_CHECK_OK(session.status());
    CD_CHECK_OK(session->Run(base).status());
    Status status = session->Update(ExampleDelta(base));
    ASSERT_FALSE(status.ok());
    EXPECT_EQ(status.code(), StatusCode::kFailedPrecondition);
    EXPECT_NE(status.message().find("online_updates"),
              std::string::npos);
  }
  {
    SessionOptions options = ExampleOptions("hybrid", 1);
    options.online_updates = true;
    auto session = Session::Create(options);
    CD_CHECK_OK(session.status());
    Status status = session->Update(ExampleDelta(base));
    ASSERT_FALSE(status.ok());
    EXPECT_EQ(status.code(), StatusCode::kFailedPrecondition);
  }
  {
    // Mid-streaming updates are rejected.
    SessionOptions options = ExampleOptions("hybrid", 1);
    options.online_updates = true;
    auto session = Session::Create(options);
    CD_CHECK_OK(session.status());
    CD_CHECK_OK(session->Start(base));
    auto stepped = session->Step();
    CD_CHECK_OK(stepped.status());
    Status status = session->Update(ExampleDelta(base));
    ASSERT_FALSE(status.ok());
    EXPECT_EQ(status.code(), StatusCode::kFailedPrecondition);
  }
  {
    // A bad delta surfaces the Apply error and leaves the session
    // usable.
    SessionOptions options = ExampleOptions("hybrid", 1);
    options.online_updates = true;
    auto session = Session::Create(options);
    CD_CHECK_OK(session.status());
    CD_CHECK_OK(session->Run(base).status());
    DatasetDelta bad;
    bad.Retract("no-such-source", base.item_name(0));
    Status status = session->Update(bad);
    ASSERT_FALSE(status.ok());
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
    CD_CHECK_OK(session->Update(ExampleDelta(base)));
  }
}

TEST(SessionOptionsValidate, UpdateRebuildFractionRange) {
  SessionOptions options;
  options.update_rebuild_fraction = 1.5;
  Status status = options.Validate();
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.message().find("update_rebuild_fraction"),
            std::string::npos);
}

}  // namespace
}  // namespace copydetect
