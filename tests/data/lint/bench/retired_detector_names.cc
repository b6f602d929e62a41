// Fixture: the retired detector and runtime plumbing coming back in a
// harness — expect deprecated-shim at lines 6 to 11 and 13 to 28; line
// 12 (the table lookup, an alias spelled in a string) is legal.
#include "copydetect/session.h"

auto kind = DetectorKind::kIndex;
auto made = MakeDetector(kind, DetectionParams());
auto outcome = RunFusion(World(), kind, FusionOptions());
ParallelIndexDetector parallel(DetectionParams());
auto& registry = DetectorRegistry::Global();
CD_REGISTER_DETECTOR(mine, "mine", nullptr);
auto index = CreateDetector("parallel-index", DetectionParams());
auto sharded = ShardedDetector::Create("index", DetectionParams(), 4);
auto published = SharedOverlaps::Lookup(data.generation());
MaintainedOverlaps maintained;
ArenaHashMap<int> table(nullptr);
ArenaAllocator<uint64_t> alloc(nullptr);
ArenaLease* lease = nullptr;
auto leased = AcquireArena(nullptr, 0);
ThreadPool pool(4);
ShardPlan plan{2, 0};
ShardResult part;
snapshot::BspState state;
auto merged = MergeShardResults(parts, &copies, &counters);
auto init = session.InitShardedRun(data, "state.cdsnap");
auto round = session.RunShardRound(data, "state.cdsnap", "shard.cdsnap");
auto done = session.MergeShardRound(data, paths, "state.cdsnap");
auto reserved = ShardPairReservation(index, end, 0, 1);
