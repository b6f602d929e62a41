#ifndef COPYDETECT_CORE_SHARDED_SCAN_H_
#define COPYDETECT_CORE_SHARDED_SCAN_H_

#include <cstddef>
#include <vector>

#include "common/executor.h"
#include "core/copy_result.h"
#include "core/counters.h"
#include "model/types.h"

namespace copydetect {

/// Shard-dispatch-and-merge boilerplate shared by the pair-ownership
/// sharded scans (IndexDetector, BoundedScan). `scan(shard, num_shards,
/// counters, out, arena)` must process exactly the pairs with
/// Mix64(PairKey) % num_shards == shard; distinct shards then touch
/// disjoint pairs, the merge is a plain union, and counters sum to the
/// sequential values. With a null or single-thread executor the scan
/// runs inline as scan(0, 1, ...) — the sequential algorithm itself.
///
/// Each shard receives an exclusively leased Arena for its round
/// scratch (pair tables, per-source counters). With an executor the
/// arenas persist across rounds on their worker slots, so steady-state
/// scans stop hitting the allocator; without one the lease owns a
/// private arena with the same interface.
template <typename ScanFn>
void RunShardedScan(Executor* executor, Counters* counters,
                    CopyResult* out, const ScanFn& scan) {
  const size_t shards =
      executor != nullptr ? executor->num_threads() : 1;
  if (shards <= 1) {
    ArenaLease lease = AcquireArena(executor, 0);
    scan(size_t{0}, size_t{1}, counters, out, lease.get());
    return;
  }
  std::vector<Counters> shard_counters(shards);
  std::vector<CopyResult> shard_results(shards);
  executor->ParallelFor(shards, [&](size_t w) {
    ArenaLease lease = executor->AcquireArena(w);
    scan(w, shards, &shard_counters[w], &shard_results[w], lease.get());
  });
  for (size_t w = 0; w < shards; ++w) {
    *counters += shard_counters[w];
    shard_results[w].ForEach(
        [out](SourceId a, SourceId b, const PairPosterior& p) {
          out->Set(a, b, p);
        });
  }
}

}  // namespace copydetect

#endif  // COPYDETECT_CORE_SHARDED_SCAN_H_
