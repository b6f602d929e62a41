#ifndef COPYDETECT_CORE_SHARDED_SCAN_H_
#define COPYDETECT_CORE_SHARDED_SCAN_H_

#include <cstddef>
#include <utility>
#include <vector>

#include "common/executor.h"
#include "core/copy_result.h"
#include "core/counters.h"
#include "model/shard_plan.h"

namespace copydetect {

/// Shard-dispatch-and-merge boilerplate shared by the sharded scans
/// (IndexDetector, BoundedScan). It composes the two levels of the row
/// partition (OwnsRow, model/shard_plan.h) in one place: worker w of T
/// runs composite shard plan.shard_id + P·w of P·T, where P is
/// plan.num_shards, so the workers split exactly the rows the plan
/// owns. `scan(shard, num_shards, counters, out, arena)` must process
/// exactly the pairs whose row it owns (OwnsRow(lo, shard,
/// num_shards)), each in the sequential accumulation order; distinct
/// shards then touch disjoint pairs, the merge is a plain union, and
/// counters sum to the sequential values. Stream-level counters
/// (entries_scanned) go to composite shard 0 alone, which only the
/// plan's shard 0 runs. With a null or single-thread executor the scan
/// runs inline as scan(plan.shard_id, P, ...), the sequential algorithm
/// itself when the plan is inactive.
///
/// Each shard counts into a Counters and writes into a CopyResult on
/// its own worker's stack, and moves both into its merge slot once,
/// after its scan: adjacent slots share cache lines, so a scan that
/// wrote them per pair would contend with its neighbours.
///
/// Each shard receives an exclusively leased Arena for its round
/// scratch (pair tables, per-source counters). With an executor the
/// arenas persist across rounds on their worker slots, so steady-state
/// scans stop hitting the allocator; without one the lease owns a
/// private arena with the same interface.
template <typename ScanFn>
void RunShardedScan(const ShardPlan& plan, Executor* executor,
                    Counters* counters, CopyResult* out,
                    const ScanFn& scan) {
  const size_t workers =
      executor != nullptr ? executor->num_threads() : 1;
  const size_t num_shards = size_t{plan.num_shards} * workers;
  if (workers <= 1) {
    ArenaLease lease = AcquireArena(executor, 0);
    scan(size_t{plan.shard_id}, num_shards, counters, out, lease.get());
    return;
  }
  std::vector<Counters> shard_counters(workers);
  std::vector<CopyResult> shard_results(workers);
  executor->ParallelFor(workers, [&](size_t w) {
    ArenaLease lease = executor->AcquireArena(w);
    Counters local_counters;
    CopyResult local_result;
    scan(plan.shard_id + size_t{plan.num_shards} * w, num_shards,
         &local_counters, &local_result, lease.get());
    shard_counters[w] = local_counters;
    shard_results[w] = std::move(local_result);
  });
  for (size_t w = 0; w < workers; ++w) {
    *counters += shard_counters[w];
    shard_results[w].ForEach(
        [out](SourceId a, SourceId b, const PairPosterior& p) {
          out->Set(a, b, p);
        });
  }
}

}  // namespace copydetect

#endif  // COPYDETECT_CORE_SHARDED_SCAN_H_
