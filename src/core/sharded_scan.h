#ifndef COPYDETECT_CORE_SHARDED_SCAN_H_
#define COPYDETECT_CORE_SHARDED_SCAN_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "common/executor.h"
#include "core/copy_result.h"
#include "core/counters.h"
#include "core/inverted_index.h"
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

/// The entry count to Reserve for the pair table of scan shard `shard`
/// of `num_shards`, when only the entries at ranks [0, creating_end)
/// of `index` create pairs. It rests on an upper bound on the shard's
/// pairs: each owned row lo gains at most one pair per later provider
/// of every creating entry lo provides, and never more than the n-1-lo
/// sources above lo. The bound overestimates (1.0-1.9x on the
/// generated worlds), so the table is sized for the bound to fill it,
/// not to stay under the 3/4 growth threshold: the real pairs then fit
/// without growth, and a table whose bound is tight grows once at
/// most. This replaces the growth chain a table started at the minimum
/// capacity walks every round. Costs one pass over the creating
/// entries' providers.
inline size_t ShardPairReservation(const InvertedIndex& index,
                                   size_t creating_end, size_t shard,
                                   size_t num_shards) {
  const size_t n = index.data().num_sources();
  std::vector<uint64_t> row(n, 0);
  for (size_t rank = 0; rank < creating_end; ++rank) {
    std::span<const SourceId> providers = index.providers(rank);
    for (size_t i = 0; i + 1 < providers.size(); ++i) {
      if (OwnsRow(providers[i], shard, num_shards)) {
        row[providers[i]] += providers.size() - 1 - i;
      }
    }
  }
  size_t bound = 0;
  for (size_t lo = 0; lo < n; ++lo) {
    if (OwnsRow(static_cast<SourceId>(lo), shard, num_shards)) {
      bound += std::min<uint64_t>(row[lo], n - 1 - lo);
    }
  }
  return bound * 3 / 4;
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
