// Warm start: snapshot persistence across process restarts — the
// durability leg of the production story. A serving process that dies
// must not pay a cold start (CSV parse, overlap recount, full
// detection + fusion) when it comes back; it Session::Load()s the
// snapshot its predecessor Save()d and resumes exactly where that
// process stopped, online updates included.
//
// The demo plays both processes in one binary:
//  1. "yesterday's" process runs full detection on a stock world and
//     Save()s the session to a snapshot file;
//  2. "today's" process Load()s the file — the report is available
//     immediately, no re-run — and verifies it matches the live
//     session bit for bit;
//  3. today's process then applies a fresh feed through
//     Session::Update, proving a loaded session keeps serving updates
//     just like one that never left memory.
//
//   ./warm_start [--scale=0.1] [--seed=42]
//       [--snapshot=warm_start.cdsnap]
#include <cstdio>
#include <cstdlib>
#include <string>

#include "copydetect/session.h"

using namespace copydetect;

namespace {

/// Dies unless two finished runs agree bit for bit where it matters.
void CheckSameReport(const Report& got, const Report& want,
                     const char* what) {
  bool same = got.rounds() == want.rounds() &&
              got.converged() == want.converged() &&
              got.truth() == want.truth() &&
              got.accuracies().size() == want.accuracies().size() &&
              got.copies().NumTracked() == want.copies().NumTracked();
  for (size_t s = 0; same && s < want.accuracies().size(); ++s) {
    same = got.accuracies()[s] == want.accuracies()[s];
  }
  if (!same) {
    std::fprintf(stderr, "warm_start: %s diverged from the live run\n",
                 what);
    std::exit(1);
  }
}

}  // namespace

int main(int argc, char** argv) {
  double scale = 0.1;
  uint64_t seed = 42;
  std::string path = "warm_start.cdsnap";
  FlagSet flags("warm_start: snapshot persistence across restarts");
  flags.Double("scale", &scale, "world scale factor");
  flags.Uint64("seed", &seed, "world generator seed");
  flags.String("snapshot", &path, "snapshot file to write and reload");
  flags.ParseOrDie(argc, argv);

  auto world_or = GenerateWorld(Stock1DayProfile(scale), seed);
  CD_CHECK_OK(world_or.status());
  const World& world = *world_or;
  std::printf("Stock world (scale %.2f): %s\n\n", scale,
              ComputeStats(world.data).ToString().c_str());

  // ---- Process 1: cold run, then persist. ----
  SessionOptions options;
  options.detector = "index";
  options.n = world.suggested_n;
  options.online_updates = true;  // keep state past Run for Save
  auto live = Session::Create(options);
  CD_CHECK_OK(live.status());

  Stopwatch cold_watch;
  cold_watch.Start();
  auto cold = live->Run(world.data);
  CD_CHECK_OK(cold.status());
  cold_watch.Stop();
  CD_CHECK_OK(live->Save(path));
  std::printf("cold run: %d rounds in %s, saved to %s\n",
              cold->rounds(), HumanSeconds(cold_watch.Seconds()).c_str(),
              path.c_str());

  // ---- Process 2: restart, warm start from the file. ----
  Stopwatch warm_watch;
  warm_watch.Start();
  auto restored = Session::Load(path, LoadOptions());
  CD_CHECK_OK(restored.status());
  warm_watch.Stop();
  std::printf("warm start: report restored in %s (%.0fx faster than "
              "the cold run)\n",
              HumanSeconds(warm_watch.Seconds()).c_str(),
              cold_watch.Seconds() /
                  (warm_watch.Seconds() > 0 ? warm_watch.Seconds()
                                            : 1e-9));
  CheckSameReport(restored->report(), *cold, "loaded report");

  // ---- Today's feed lands on the loaded session. ----
  DatasetDelta feed;
  const Dataset& data = *restored->current_data();
  std::span<const ItemId> items = data.items_of(0);
  for (size_t i = 0; i < items.size() && i < 8; ++i) {
    feed.Set(data.source_name(0), data.item_name(items[i]),
             "today-quote" + std::to_string(i));
  }
  CD_CHECK_OK(restored->Update(feed));
  // The live session sees the same feed; both must agree bit for bit
  // — a loaded session is the session that never left memory.
  CD_CHECK_OK(live->Update(feed));
  CheckSameReport(restored->report(), live->report(),
                  "post-update report");
  const UpdateStats& stats = restored->last_update_stats();
  std::printf("update on the loaded session: overlaps %s, %zu items "
              "touched, report identical to the never-persisted "
              "session\n",
              stats.overlaps_maintained ? "patched" : "recounted",
              stats.touched_items);

  std::remove(path.c_str());
  std::printf("\nwarm start OK\n");
  return 0;
}
