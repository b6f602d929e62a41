#ifndef COPYDETECT_CORE_SHARDED_SCAN_H_
#define COPYDETECT_CORE_SHARDED_SCAN_H_

#include <cstddef>
#include <utility>
#include <vector>

#include "common/executor.h"
#include "core/copy_result.h"
#include "core/counters.h"
#include "model/types.h"

namespace copydetect {

/// Row ownership, the one pair partition of detection: pair (lo, hi),
/// lo < hi, belongs to shard lo % num_shards. Provider lists ascend
/// (Dataset::providers), so providers[i] is the smaller source of every
/// pair (providers[i], providers[j > i]), and a scan tests one position
/// per row and enumerates only the pairs it owns. Interleaving rows by
/// id keeps dense data balanced, where row lengths fall linearly with
/// lo. RunShardedScan gives each executor worker one shard.
inline bool OwnsRow(SourceId lo, size_t shard, size_t num_shards) {
  return num_shards <= 1 || lo % num_shards == shard;
}

/// Shard-dispatch-and-merge boilerplate shared by the sharded scans
/// (IndexDetector, BoundedScan): worker w of T runs shard w of T.
/// `scan(shard, num_shards, counters, out)` must process exactly the
/// pairs whose row it owns (OwnsRow(lo, shard, num_shards)), each in
/// the sequential accumulation order; distinct shards then touch
/// disjoint pairs, the merge is a plain union, and counters sum to the
/// sequential values. Stream-level counters (entries_scanned) go to
/// shard 0 alone. With a null or single-thread executor the scan runs
/// inline as scan(0, 1, ...), the sequential algorithm itself.
///
/// Each shard counts into a Counters and writes into a CopyResult on
/// its own worker's stack, and moves both into its merge slot once,
/// after its scan: adjacent slots share cache lines, so a scan that
/// wrote them per pair would contend with its neighbours.
template <typename ScanFn>
void RunShardedScan(Executor* executor, Counters* counters,
                    CopyResult* out, const ScanFn& scan) {
  const size_t workers =
      executor != nullptr ? executor->num_threads() : 1;
  if (workers <= 1) {
    scan(0, 1, counters, out);
    return;
  }
  std::vector<Counters> shard_counters(workers);
  std::vector<CopyResult> shard_results(workers);
  executor->ParallelFor(workers, [&](size_t w) {
    Counters local_counters;
    CopyResult local_result;
    scan(w, workers, &local_counters, &local_result);
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
