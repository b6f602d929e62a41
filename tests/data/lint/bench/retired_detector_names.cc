// Fixture: the retired detector plumbing coming back in a harness —
// expect deprecated-shim at lines 6 to 11 and 13 to 15; line 12 (the
// table lookup, an alias spelled in a string) is legal.
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
