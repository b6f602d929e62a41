#ifndef COPYDETECT_CORE_SHARD_MERGE_H_
#define COPYDETECT_CORE_SHARD_MERGE_H_

#include <cstdint>
#include <span>

#include "common/status.h"
#include "core/copy_result.h"
#include "core/counters.h"

namespace copydetect {

/// One shard's contribution to a detection round under a ShardPlan:
/// the posteriors of pairs in the rows the shard owns, plus the
/// counters its scan accumulated. Serialized as the SHARD section of
/// a `.cdsnap`-framed shard file (snapshot::WriteShardResult).
struct ShardResult {
  uint32_t num_shards = 1;
  uint32_t shard_id = 0;
  /// 1-based fusion round the detection ran for.
  int round = 0;
  Counters counters;
  CopyResult copies;
};

/// Merges the N shards of one round into the full-round copy result
/// and counter totals, exactly as a single-process run would have
/// produced them. Deterministic by construction: shards are folded in
/// fixed shard-id order (whatever order the caller supplies them in),
/// and each pair's posterior was accumulated entirely inside its one
/// owning shard, so no floating-point operation is reordered relative
/// to the unsharded run.
///
/// Requirements (error otherwise): every shard_id 0..num_shards-1
/// present exactly once, all shards agreeing on num_shards and round,
/// and every pair of a shard lying in a row it owns (OwnsRow,
/// model/shard_plan.h).
/// `copies` is cleared first; `counters` is accumulated into (callers
/// summing rounds pass a running total).
Status MergeShardResults(std::span<const ShardResult> shards,
                         CopyResult* copies, Counters* counters);

}  // namespace copydetect

#endif  // COPYDETECT_CORE_SHARD_MERGE_H_
