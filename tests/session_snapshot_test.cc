// The warm-start acceptance bar: Session::Save -> Session::Load must
// hand back a session whose report() is bit-identical to the saver's,
// and whose subsequent Update / Start+Step behave bit-identically to
// the session that never left memory — for every registered detector,
// at 1 and 4 threads (the suite runs under asan-ubsan and tsan in
// CI). Plus the facade-level failure modes: Save preconditions,
// options round trip, and Load refusing inconsistent files.
#include "copydetect/session.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "legacy_tape.h"
#include "snapshot/snapshot_io.h"

namespace copydetect {
namespace {

using testutil::ReadFileBytes;
using testutil::WriteFileBytes;

std::string TempPath(const std::string& name) {
  return testing::TempDir() + "/" + name;
}

void ExpectSameCopies(const CopyResult& got, const CopyResult& want) {
  EXPECT_EQ(got.NumTracked(), want.NumTracked());
  want.ForEach([&](SourceId a, SourceId b, const PairPosterior& w) {
    PairPosterior g = got.Get(a, b);
    EXPECT_EQ(g.p_indep, w.p_indep) << "pair " << a << "," << b;
    EXPECT_EQ(g.p_first_copies, w.p_first_copies)
        << "pair " << a << "," << b;
    EXPECT_EQ(g.p_second_copies, w.p_second_copies)
        << "pair " << a << "," << b;
  });
}

/// Bitwise equality of everything semantic a run produces (timings
/// and detector counters are per-process by design).
void ExpectSameFusion(const FusionResult& got,
                      const FusionResult& want) {
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

void ExpectSameReport(Report got, Report want) {
  EXPECT_EQ(got.detector, want.detector);
  ExpectSameFusion(got.fusion, want.fusion);
  EXPECT_EQ(got.graph.NumPairs(), want.graph.NumPairs());
  EXPECT_EQ(got.graph.NumSources(), want.graph.NumSources());
  EXPECT_EQ(got.graph.clusters.size(), want.graph.clusters.size());
}

/// Report::ToJson of a cold, never-persisted run of `options` on
/// `data`.
std::string ColdJson(const Dataset& data, SessionOptions options) {
  options.online_updates = false;
  auto cold = Session::Create(options);
  CD_CHECK_OK(cold.status());
  auto report = cold->Run(data);
  CD_CHECK_OK(report.status());
  return report->ToJson(data);
}

/// Two consecutive report() calls on a session with no live run must
/// render the same bytes, and those must be `want`'s.
void ExpectStableReport(Session* session, const std::string& want) {
  const std::string first =
      session->report().ToJson(*session->current_data());
  const std::string second =
      session->report().ToJson(*session->current_data());
  EXPECT_EQ(first, second);
  EXPECT_EQ(first, want);
}

/// A feed-like delta: overwrite, add, retract, new source, new item.
DatasetDelta ExampleDelta(const Dataset& base) {
  DatasetDelta delta;
  delta.Set(base.source_name(0), base.item_name(0), "Newark");
  delta.Set(base.source_name(0), base.item_name(3), "Tampa");
  delta.Retract(base.source_name(9), base.item_name(4));
  delta.Set("S-feed", base.item_name(1), "Yuma");
  delta.Set(base.source_name(2), "CO", "Denver");
  return delta;
}

DatasetDelta FollowUpDelta(const Dataset& base) {
  DatasetDelta delta;
  delta.Set(base.source_name(4), base.item_name(0), "Trenton");
  delta.Retract(base.source_name(2), "CO");
  delta.Set("S-feed", base.item_name(2), "Albany");
  return delta;
}

/// The scenario driver: Run, Save, Load, then drive the live and the
/// loaded session through the same updates — every report pair must
/// match bit for bit.
void ExpectWarmStartEquivalence(const Dataset& base,
                                const std::vector<DatasetDelta>& deltas,
                                SessionOptions options,
                                const std::string& tag) {
  options.online_updates = true;
  const std::string path = TempPath("warm_" + tag + ".cdsnap");
  auto live = Session::Create(options);
  CD_CHECK_OK(live.status());
  auto first = live->Run(base);
  CD_CHECK_OK(first.status());
  CD_CHECK_OK(live->Save(path));

  auto loaded = Session::Load(path, LoadOptions());
  CD_CHECK_OK(loaded.status());
  std::remove(path.c_str());
  EXPECT_EQ(loaded->detector_name(), live->detector_name());
  EXPECT_EQ(loaded->threads(), live->threads());
  ASSERT_NE(loaded->current_data(), nullptr);
  EXPECT_EQ(loaded->current_data()->num_observations(),
            base.num_observations());
  // The restored report is available without any re-run — and its
  // pair map keeps the saver's exact table layout (downstream
  // iteration order is part of the restored state).
  ExpectSameReport(loaded->report(), live->report());
  EXPECT_EQ(loaded->report().copies().raw_map().raw_keys(),
            live->report().copies().raw_map().raw_keys());

  // Load-then-Update == never-persisted-Update, chained (the second
  // update applies on the first's snapshot on both sides).
  for (const DatasetDelta& delta : deltas) {
    CD_CHECK_OK(live->Update(delta));
    CD_CHECK_OK(loaded->Update(delta));
    EXPECT_EQ(loaded->last_update_stats().incremental,
              live->last_update_stats().incremental);
    ExpectSameReport(loaded->report(), live->report());
  }

  // A snapshot taken *after* updates persists the updated snapshot;
  // a second generation of process must still track the live one.
  if (!deltas.empty()) {
    CD_CHECK_OK(live->Save(path));
    auto reloaded = Session::Load(path, LoadOptions());
    CD_CHECK_OK(reloaded.status());
    std::remove(path.c_str());
    ExpectSameReport(reloaded->report(), live->report());
    DatasetDelta again;  // a plain overwrite applies on any snapshot
    const Dataset& current = *live->current_data();
    again.Set(current.source_name(0), current.item_name(0),
              "warm-again");
    CD_CHECK_OK(live->Update(again));
    CD_CHECK_OK(reloaded->Update(again));
    ExpectSameReport(reloaded->report(), live->report());
  }
}

TEST(SessionSnapshot, WarmStartEveryDetectorThreads1And4) {
  World world = MotivatingExample();
  const std::vector<DatasetDelta> deltas = {
      ExampleDelta(world.data), FollowUpDelta(world.data)};
  for (const std::string& name : ListDetectors()) {
    for (size_t threads : {size_t{1}, size_t{4}}) {
      SCOPED_TRACE(name + " threads=" + std::to_string(threads));
      SessionOptions options;
      options.detector = name;
      options.threads = threads;
      ExpectWarmStartEquivalence(
          world.data, deltas, options,
          name + "_t" + std::to_string(threads));
    }
  }
}

TEST(SessionSnapshot, WarmStartGeneratedWorld) {
  auto world = MakeWorldByName("book-cs", 0.1, 11);
  CD_CHECK_OK(world.status());
  const Dataset& base = world->data;
  // A feed push by one source plus a brand-new source.
  DatasetDelta delta;
  std::span<const ItemId> items = base.items_of(3);
  for (size_t i = 0; i < items.size() && i < 5; ++i) {
    delta.Set(base.source_name(3), base.item_name(items[i]),
              "feed-" + std::to_string(i));
  }
  delta.Set("new-feed", base.item_name(items[0]), "feed-0");
  for (const std::string& name :
       {std::string("pairwise"), std::string("index"),
        std::string("incremental")}) {
    SCOPED_TRACE(name);
    SessionOptions options;
    options.detector = name;
    options.n = world->suggested_n;
    ExpectWarmStartEquivalence(base, {delta}, options, "gen_" + name);
  }
}

TEST(SessionSnapshot, StreamingAfterLoadMatchesLiveSession) {
  World world = MotivatingExample();
  const std::string path = TempPath("stream_after_load.cdsnap");
  SessionOptions options;
  options.detector = "index";
  options.threads = 4;
  options.online_updates = true;
  auto live = Session::Create(options);
  CD_CHECK_OK(live.status());
  CD_CHECK_OK(live->Run(world.data).status());
  CD_CHECK_OK(live->Save(path));
  auto loaded = Session::Load(path, LoadOptions());
  CD_CHECK_OK(loaded.status());
  std::remove(path.c_str());

  // A fresh streaming run on each session, stepped in lockstep: the
  // loaded session must track the live one round by round.
  CD_CHECK_OK(live->Start(world.data));
  CD_CHECK_OK(loaded->Start(world.data));
  while (true) {
    auto live_step = live->Step();
    auto loaded_step = loaded->Step();
    CD_CHECK_OK(live_step.status());
    CD_CHECK_OK(loaded_step.status());
    ASSERT_EQ(*loaded_step, *live_step);
    if (!*live_step) break;
    ExpectSameFusion(loaded->report().fusion, live->report().fusion);
  }
  ExpectSameReport(loaded->report(), live->report());
}

TEST(SessionSnapshot, FinishedStreamingRunSavesWithoutOnlineUpdates) {
  World world = MotivatingExample();
  const std::string path = TempPath("streaming_save.cdsnap");
  SessionOptions options;
  options.detector = "hybrid";
  auto session = Session::Create(options);
  CD_CHECK_OK(session.status());
  CD_CHECK_OK(session->Start(world.data));
  while (true) {
    auto stepped = session->Step();
    CD_CHECK_OK(stepped.status());
    if (!*stepped) break;
  }
  CD_CHECK_OK(session->Save(path));
  auto loaded = Session::Load(path, LoadOptions());
  CD_CHECK_OK(loaded.status());
  std::remove(path.c_str());
  ExpectSameReport(loaded->report(), session->report());
}

TEST(SessionSnapshot, RunAfterLoadSupersedesTheLoadedSnapshot) {
  // A loaded session later used for a plain Run on *other* data must
  // not keep serving (or re-persist) the stale loaded data set.
  World world = MotivatingExample();
  const std::string path = TempPath("supersede.cdsnap");
  SessionOptions options;
  options.detector = "index";
  auto saver = Session::Create(options);
  CD_CHECK_OK(saver.status());
  CD_CHECK_OK(saver->Start(world.data));
  while (true) {
    auto stepped = saver->Step();
    CD_CHECK_OK(stepped.status());
    if (!*stepped) break;
  }
  CD_CHECK_OK(saver->Save(path));

  auto loaded = Session::Load(path, LoadOptions());
  CD_CHECK_OK(loaded.status());
  std::remove(path.c_str());
  auto other = MakeWorldByName("book-cs", 0.05, 3);
  CD_CHECK_OK(other.status());
  // Without online_updates, Run hands its state to the caller; the
  // loaded snapshot is superseded, so nothing stale remains to save.
  CD_CHECK_OK(loaded->Run(other->data).status());
  EXPECT_EQ(loaded->current_data(), nullptr);
  Status stale = loaded->Save(TempPath("stale.cdsnap"));
  EXPECT_EQ(stale.code(), StatusCode::kFailedPrecondition);

  // A finished *streaming* run on the other data saves that data.
  CD_CHECK_OK(loaded->Start(other->data));
  while (true) {
    auto stepped = loaded->Step();
    CD_CHECK_OK(stepped.status());
    if (!*stepped) break;
  }
  CD_CHECK_OK(loaded->Save(path));
  auto reloaded = Session::Load(path, LoadOptions());
  CD_CHECK_OK(reloaded.status());
  std::remove(path.c_str());
  EXPECT_EQ(reloaded->current_data()->num_sources(),
            other->data.num_sources());
  ExpectSameReport(reloaded->report(), loaded->report());
}

TEST(SessionSnapshot, AccuracyOnlySessionRoundTrips) {
  World world = MotivatingExample();
  const std::string path = TempPath("accuracy_only.cdsnap");
  SessionOptions options;
  options.use_copy_detection = false;
  options.online_updates = true;
  auto live = Session::Create(options);
  CD_CHECK_OK(live.status());
  CD_CHECK_OK(live->Run(world.data).status());
  CD_CHECK_OK(live->Save(path));
  auto loaded = Session::Load(path, LoadOptions());
  CD_CHECK_OK(loaded.status());
  std::remove(path.c_str());
  ExpectSameReport(loaded->report(), live->report());
  DatasetDelta delta = ExampleDelta(world.data);
  CD_CHECK_OK(live->Update(delta));
  CD_CHECK_OK(loaded->Update(delta));
  ExpectSameReport(loaded->report(), live->report());
}

TEST(SessionSnapshot, SampledSessionRoundTrips) {
  auto world = MakeWorldByName("book-cs", 0.1, 19);
  CD_CHECK_OK(world.status());
  const std::string path = TempPath("sampled.cdsnap");
  SessionOptions options;
  options.detector = "index";
  options.n = world->suggested_n;
  options.sample_rate = 0.5;
  options.online_updates = true;  // no maintained overlaps with
                                  // sampling on either session
  auto live = Session::Create(options);
  CD_CHECK_OK(live.status());
  CD_CHECK_OK(live->Run(world->data).status());
  CD_CHECK_OK(live->Save(path));
  auto loaded = Session::Load(path, LoadOptions());
  CD_CHECK_OK(loaded.status());
  std::remove(path.c_str());
  ExpectSameReport(loaded->report(), live->report());
  DatasetDelta delta;
  delta.Set(world->data.source_name(0),
            world->data.item_name(world->data.items_of(0)[0]),
            "resampled");
  CD_CHECK_OK(live->Update(delta));
  CD_CHECK_OK(loaded->Update(delta));
  ExpectSameReport(loaded->report(), live->report());
}

TEST(SessionSnapshot, ParallelIndexAliasRendersIndexBytes) {
  // "parallel-index" is an alias of "index". Saved options keep the
  // caller's spelling, so older state files name it: both spellings
  // must serve the same report bytes, live and after Save -> Load.
  auto world = MakeWorldByName("book-cs", 0.1, 11);
  CD_CHECK_OK(world.status());
  for (size_t threads : {size_t{1}, size_t{4}}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    SessionOptions options;
    options.n = world->suggested_n;
    options.threads = threads;
    options.online_updates = true;  // keeps the run's state to Save
    options.detector = "index";
    auto index = Session::Create(options);
    CD_CHECK_OK(index.status());
    CD_CHECK_OK(index->Run(world->data).status());
    const std::string want =
        index->report().ToJson(*index->current_data());
    EXPECT_NE(want.find("\"detector\":\"index\""), std::string::npos);

    options.detector = "parallel-index";
    auto alias = Session::Create(options);
    CD_CHECK_OK(alias.status());
    CD_CHECK_OK(alias->Run(world->data).status());
    EXPECT_EQ(alias->detector_name(), "index");
    EXPECT_EQ(alias->report().ToJson(*alias->current_data()), want);

    const std::string path =
        TempPath("parallel_index_t" + std::to_string(threads) + ".cdsnap");
    CD_CHECK_OK(alias->Save(path));
    auto loaded = Session::Load(path, LoadOptions());
    CD_CHECK_OK(loaded.status());
    std::remove(path.c_str());
    EXPECT_EQ(loaded->options().detector, "parallel-index");
    EXPECT_EQ(loaded->report().ToJson(*loaded->current_data()), want);
  }
}

TEST(SessionSnapshot, OptionsRoundTripExactly) {
  World world = MotivatingExample();
  const std::string path = TempPath("options.cdsnap");
  SessionOptions options;
  options.detector = "boundplus";
  options.alpha = 0.12;
  options.s = 0.75;
  options.n = 17.5;
  options.hybrid_threshold = 9;
  options.rho_accuracy = 0.3;
  options.rho_value = 0.9;
  options.max_rounds = 7;
  options.epsilon = 2e-4;
  options.initial_accuracy = 0.7;
  options.damping = 0.3;
  options.threads = 3;
  options.sample_method = SamplingMethod::kByCell;
  options.sample_min_items_per_source = 6;
  options.sample_seed = 99;
  options.online_updates = true;
  options.update_rebuild_fraction = 0.4;
  auto live = Session::Create(options);
  CD_CHECK_OK(live.status());
  CD_CHECK_OK(live->Run(world.data).status());
  CD_CHECK_OK(live->Save(path));
  auto loaded = Session::Load(path, LoadOptions());
  CD_CHECK_OK(loaded.status());
  std::remove(path.c_str());
  const SessionOptions& got = loaded->options();
  EXPECT_EQ(got.detector, options.detector);
  EXPECT_EQ(got.alpha, options.alpha);
  EXPECT_EQ(got.s, options.s);
  EXPECT_EQ(got.n, options.n);
  EXPECT_EQ(got.hybrid_threshold, options.hybrid_threshold);
  EXPECT_EQ(got.rho_accuracy, options.rho_accuracy);
  EXPECT_EQ(got.rho_value, options.rho_value);
  EXPECT_EQ(got.max_rounds, options.max_rounds);
  EXPECT_EQ(got.epsilon, options.epsilon);
  EXPECT_EQ(got.initial_accuracy, options.initial_accuracy);
  EXPECT_EQ(got.use_copy_detection, options.use_copy_detection);
  EXPECT_EQ(got.damping, options.damping);
  EXPECT_EQ(got.threads, options.threads);
  EXPECT_EQ(got.sample_rate, options.sample_rate);
  EXPECT_EQ(got.sample_method, options.sample_method);
  EXPECT_EQ(got.sample_min_items_per_source,
            options.sample_min_items_per_source);
  EXPECT_EQ(got.sample_seed, options.sample_seed);
  EXPECT_EQ(got.online_updates, options.online_updates);
  EXPECT_EQ(got.update_rebuild_fraction,
            options.update_rebuild_fraction);
}

// --- Mapped loading: LoadMode::kMapped serves the same state out of
// the mapped file, and Update copy-on-writes out of the mapping. ---

TEST(SessionSnapshotMapped, MappedLoadMatchesOwnedLoadEveryDetector) {
  World world = MotivatingExample();
  for (const std::string& name : ListDetectors()) {
    SCOPED_TRACE(name);
    const std::string path = TempPath("mapped_" + name + ".cdsnap");
    SessionOptions options;
    options.detector = name;
    options.online_updates = true;
    auto live = Session::Create(options);
    CD_CHECK_OK(live.status());
    CD_CHECK_OK(live->Run(world.data).status());
    CD_CHECK_OK(live->Save(path));

    auto owned = Session::Load(path, LoadMode::kOwned);
    CD_CHECK_OK(owned.status());
    auto mapped = Session::Load(path, LoadMode::kMapped);
    CD_CHECK_OK(mapped.status());
    std::remove(path.c_str());

    EXPECT_EQ(mapped->detector_name(), owned->detector_name());
    ExpectSameReport(mapped->report(), owned->report());
    EXPECT_EQ(mapped->report().copies().raw_map().raw_keys(),
              owned->report().copies().raw_map().raw_keys());
    ASSERT_NE(mapped->current_data(), nullptr);
    EXPECT_EQ(mapped->current_data()->num_observations(),
              world.data.num_observations());
  }
}

TEST(SessionSnapshotMapped, UpdateAfterMappedLoadCopiesOnWrite) {
  // The COW path: a mapped session taking updates must behave bit-
  // identically to an owned one — Apply may not write through the
  // read-only mapping (asan/ubsan in CI would catch a stray write,
  // and divergence here would catch a missed copy).
  World world = MotivatingExample();
  const std::string path = TempPath("mapped_cow.cdsnap");
  SessionOptions options;
  options.detector = "index";
  options.online_updates = true;
  auto live = Session::Create(options);
  CD_CHECK_OK(live.status());
  CD_CHECK_OK(live->Run(world.data).status());
  CD_CHECK_OK(live->Save(path));

  auto owned = Session::Load(path, LoadMode::kOwned);
  CD_CHECK_OK(owned.status());
  auto mapped = Session::Load(path, LoadMode::kMapped);
  CD_CHECK_OK(mapped.status());
  std::remove(path.c_str());
  // A finished run and both loads serve a cold run's bytes, call after
  // call.
  const std::string cold = ColdJson(world.data, options);
  ExpectStableReport(&*live, cold);
  ExpectStableReport(&*owned, cold);
  ExpectStableReport(&*mapped, cold);

  for (const DatasetDelta& delta :
       {ExampleDelta(world.data), FollowUpDelta(world.data)}) {
    CD_CHECK_OK(owned->Update(delta));
    CD_CHECK_OK(mapped->Update(delta));
    EXPECT_EQ(mapped->last_update_stats().incremental,
              owned->last_update_stats().incremental);
    ExpectSameReport(mapped->report(), owned->report());
    const std::string updated_cold =
        ColdJson(*owned->current_data(), options);
    ExpectStableReport(&*owned, updated_cold);
    ExpectStableReport(&*mapped, updated_cold);
  }
  // A save from the mapped session after COW round-trips cleanly.
  CD_CHECK_OK(mapped->Save(path));
  auto reloaded = Session::Load(path, LoadOptions());
  CD_CHECK_OK(reloaded.status());
  std::remove(path.c_str());
  ExpectSameReport(reloaded->report(), mapped->report());
}

TEST(SessionSnapshotMapped, StreamingAfterMappedLoadMatchesOwned) {
  World world = MotivatingExample();
  const std::string path = TempPath("mapped_stream.cdsnap");
  SessionOptions options;
  options.detector = "hybrid";
  options.threads = 4;
  options.online_updates = true;
  auto live = Session::Create(options);
  CD_CHECK_OK(live.status());
  CD_CHECK_OK(live->Run(world.data).status());
  CD_CHECK_OK(live->Save(path));
  auto owned = Session::Load(path, LoadMode::kOwned);
  CD_CHECK_OK(owned.status());
  auto mapped = Session::Load(path, LoadMode::kMapped);
  CD_CHECK_OK(mapped.status());
  std::remove(path.c_str());

  CD_CHECK_OK(owned->Start(world.data));
  CD_CHECK_OK(mapped->Start(world.data));
  while (true) {
    auto owned_step = owned->Step();
    auto mapped_step = mapped->Step();
    CD_CHECK_OK(owned_step.status());
    CD_CHECK_OK(mapped_step.status());
    ASSERT_EQ(*mapped_step, *owned_step);
    if (!*owned_step) break;
    // Mid-run, report() follows the round, not the loaded report.
    EXPECT_EQ(mapped->report().rounds(), mapped->round());
    EXPECT_EQ(owned->report().rounds(), owned->round());
  }
  ExpectSameReport(mapped->report(), owned->report());
}

// --- Failure modes. ---

TEST(SessionSnapshot, SaveBeforeAnyRunIsRefused) {
  SessionOptions options;
  options.online_updates = true;
  auto session = Session::Create(options);
  CD_CHECK_OK(session.status());
  Status status = session->Save(TempPath("never.cdsnap"));
  EXPECT_EQ(status.code(), StatusCode::kFailedPrecondition);
}

TEST(SessionSnapshot, SaveMidStreamingRunIsRefused) {
  World world = MotivatingExample();
  SessionOptions options;
  options.online_updates = true;
  auto session = Session::Create(options);
  CD_CHECK_OK(session.status());
  CD_CHECK_OK(session->Start(world.data));
  CD_CHECK_OK(session->Step().status());
  Status status = session->Save(TempPath("midrun.cdsnap"));
  EXPECT_EQ(status.code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(status.message().find("mid-run"), std::string::npos);
}

TEST(SessionSnapshot, SaveAfterPlainRunIsRefused) {
  // Without online_updates, Run() hands its state to the caller and
  // the session keeps nothing — Save must say so, not write an empty
  // file.
  World world = MotivatingExample();
  auto session = Session::Create(SessionOptions());
  CD_CHECK_OK(session.status());
  CD_CHECK_OK(session->Run(world.data).status());
  Status status = session->Save(TempPath("plain.cdsnap"));
  EXPECT_EQ(status.code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(status.message().find("online_updates"), std::string::npos);
}

TEST(SessionSnapshot, UnknownOptionFieldFromTheFutureIsRefused) {
  World world = MotivatingExample();
  const std::string path = TempPath("future_option.cdsnap");
  SessionOptions options;
  options.online_updates = true;
  auto live = Session::Create(options);
  CD_CHECK_OK(live.status());
  CD_CHECK_OK(live->Run(world.data).status());
  CD_CHECK_OK(live->Save(path));
  // Inject a configuration field this library version has never
  // heard of — Load must refuse by name instead of dropping it.
  auto state = snapshot::Read(path);
  CD_CHECK_OK(state.status());
  state->options.push_back(
      snapshot::OptionField::Bool("quantum_mode", true));
  CD_CHECK_OK(snapshot::Write(path, *state));
  auto loaded = Session::Load(path, LoadOptions());
  std::remove(path.c_str());
  ASSERT_FALSE(loaded.ok());
  EXPECT_NE(loaded.status().message().find("quantum_mode"),
            std::string::npos)
      << loaded.status().message();
}

TEST(SessionSnapshot, TamperedTapeIndexIsRefusedAtLoad) {
  World world = MotivatingExample();
  const std::string path = TempPath("tampered_index.cdsnap");
  SessionOptions options;
  options.detector = "index";
  options.online_updates = true;
  auto live = Session::Create(options);
  CD_CHECK_OK(live.status());
  CD_CHECK_OK(live->Run(world.data).status());
  CD_CHECK_OK(live->Save(path));
  // Splice in a legacy TAPE whose round-1 index names a slot past the
  // data set's last one.
  const std::vector<uint8_t> saved = ReadFileBytes(path);
  testutil::LegacyTape tape = testutil::IndexTapeFor(
      *live->current_data(), testutil::FileGeneration(saved));
  std::vector<testutil::LegacyIndexEntry>& entries =
      tape.rounds[0].index_entries;
  ASSERT_FALSE(entries.empty()) << "no taped index to tamper with";
  entries[0].slot =
      static_cast<SlotId>(live->current_data()->num_slots() + 1);
  WriteFileBytes(path, testutil::WithTape(saved, tape));
  for (LoadMode mode : {LoadMode::kOwned, LoadMode::kMapped}) {
    auto loaded = Session::Load(path, mode);
    ASSERT_FALSE(loaded.ok());
    EXPECT_NE(loaded.status().message().find("out of range"),
              std::string::npos)
        << loaded.status().message();
  }
  std::remove(path.c_str());
}

TEST(SessionSnapshot, SaveWritesNoTapeSection) {
  // The session that older writers taped most: index family, online,
  // after an Update.
  World world = MotivatingExample();
  const std::string path = TempPath("no_tape.cdsnap");
  SessionOptions options;
  options.detector = "index";
  options.online_updates = true;
  auto live = Session::Create(options);
  CD_CHECK_OK(live.status());
  CD_CHECK_OK(live->Run(world.data).status());
  CD_CHECK_OK(live->Update(ExampleDelta(world.data)));
  CD_CHECK_OK(live->Save(path));
  const std::vector<uint32_t> ids =
      testutil::SectionIds(ReadFileBytes(path));
  std::remove(path.c_str());
  // OPTIONS, DATASET, OVERLAPS, FUSION.
  EXPECT_EQ(ids, (std::vector<uint32_t>{1, 2, 3, 4}));
}

TEST(SessionSnapshot, OverlapsAreSavedOnlyForOnlineSessionsThatReadThem) {
  // Save writes the OVERLAPS section (id 3) only for an online session
  // whose runs read the counts: PAIRWISE never reads them, a sampled
  // run counts its sample's, and a batch session persists none.
  World world = MotivatingExample();
  struct Case {
    const char* tag;
    const char* detector;
    bool online;
    double sample_rate;
    std::vector<uint32_t> want;
  };
  const Case kCases[] = {
      {"online-index", "index", true, 0.0, {1, 2, 3, 4}},
      {"online-pairwise", "pairwise", true, 0.0, {1, 2, 4}},
      {"online-sampled", "index", true, 0.5, {1, 2, 4}},
      {"batch-hybrid", "hybrid", false, 0.0, {1, 2, 4}},
  };
  for (const Case& c : kCases) {
    SCOPED_TRACE(c.tag);
    SessionOptions options;
    options.detector = c.detector;
    options.online_updates = c.online;
    options.sample_rate = c.sample_rate;
    auto session = Session::Create(options);
    CD_CHECK_OK(session.status());
    ASSERT_TRUE(session->Start(world.data).ok());
    while (true) {
      auto stepped = session->Step();
      CD_CHECK_OK(stepped.status());
      if (!*stepped) break;
    }
    const std::string path =
        TempPath(std::string("overlaps_") + c.tag + ".cdsnap");
    CD_CHECK_OK(session->Save(path));
    EXPECT_EQ(testutil::SectionIds(ReadFileBytes(path)), c.want);
    std::remove(path.c_str());
  }
}

TEST(SessionSnapshot, V2TapeGoldenLoadsAndUpdatesLikeAColdRun) {
  // A committed version-2 file from a writer that still taped updates:
  // the motivating example under "index" with online updates, one
  // ExampleDelta Update, then Save — so its TAPE carries a round-1
  // index. Both load modes must drop the tape, serve the same report,
  // and update exactly like a cold run.
  const std::string path =
      std::string(CD_TEST_DATA_DIR) + "/v2_tape_golden.cdsnap";
  const std::vector<uint32_t> ids =
      testutil::SectionIds(ReadFileBytes(path));
  ASSERT_EQ(ids, (std::vector<uint32_t>{1, 2, 3, 4, 5}))
      << "the golden file must carry a TAPE section";
  auto owned = Session::Load(path, LoadMode::kOwned);
  CD_CHECK_OK(owned.status());
  auto mapped = Session::Load(path, LoadMode::kMapped);
  CD_CHECK_OK(mapped.status());
  EXPECT_EQ(owned->detector_name(), "index");
  EXPECT_EQ(mapped->report().ToJson(*mapped->current_data()),
            owned->report().ToJson(*owned->current_data()));

  const DatasetDelta delta = FollowUpDelta(*owned->current_data());
  for (Session* session : {&*owned, &*mapped}) {
    CD_CHECK_OK(session->Update(delta));
    const Dataset rebuilt = RebuildFromScratch(*session->current_data());
    SessionOptions cold_options = session->options();
    cold_options.online_updates = false;
    auto cold = Session::Create(cold_options);
    CD_CHECK_OK(cold.status());
    auto want = cold->Run(rebuilt);
    CD_CHECK_OK(want.status());
    ExpectSameReport(session->report(), *want);
    EXPECT_EQ(session->report().ToJson(*session->current_data()),
              want->ToJson(rebuilt));
  }
}

TEST(SessionSnapshot, InvalidSavedOptionsFailValidationOnLoad) {
  World world = MotivatingExample();
  const std::string path = TempPath("bad_options.cdsnap");
  SessionOptions options;
  options.online_updates = true;
  auto live = Session::Create(options);
  CD_CHECK_OK(live.status());
  CD_CHECK_OK(live->Run(world.data).status());
  CD_CHECK_OK(live->Save(path));
  auto state = snapshot::Read(path);
  CD_CHECK_OK(state.status());
  for (snapshot::OptionField& field : state->options) {
    if (field.name == "alpha") field.real_value = 7.0;  // out of range
  }
  CD_CHECK_OK(snapshot::Write(path, *state));
  auto loaded = Session::Load(path, LoadOptions());
  std::remove(path.c_str());
  ASSERT_FALSE(loaded.ok());
  EXPECT_NE(loaded.status().message().find("alpha"), std::string::npos)
      << loaded.status().message();
}

}  // namespace
}  // namespace copydetect
