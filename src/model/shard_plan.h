#ifndef COPYDETECT_MODEL_SHARD_PLAN_H_
#define COPYDETECT_MODEL_SHARD_PLAN_H_

#include <cstddef>
#include <cstdint>

#include "common/status.h"
#include "model/types.h"

namespace copydetect {

/// Row ownership, the one pair partition of detection: pair (lo, hi),
/// lo < hi, belongs to shard lo % num_shards. Provider lists ascend
/// (Dataset::providers), so providers[i] is the smaller source of every
/// pair (providers[i], providers[j > i]), and a scan tests one position
/// per row and enumerates only the pairs it owns. Interleaving rows by
/// id keeps dense data balanced, where row lengths fall linearly with
/// lo. Both levels use it: a ShardPlan splits rows across processes,
/// and core/sharded_scan.h splits a plan shard's rows across threads.
inline bool OwnsRow(SourceId lo, size_t shard, size_t num_shards) {
  return num_shards <= 1 || lo % num_shards == shard;
}

/// Deterministic pair-space partition for multi-process detection. A
/// plan {num_shards, shard_id} makes a detector process only the pairs
/// whose row it owns (OwnsRow); merging every shard's partial
/// posteriors in fixed shard order reproduces the single-process run
/// bit for bit, because each pair's floating-point accumulation
/// happens entirely inside its one owning shard.
struct ShardPlan {
  uint32_t num_shards = 1;
  uint32_t shard_id = 0;

  /// True when the plan actually partitions (more than one shard).
  bool active() const { return num_shards > 1; }

  /// True for the shard that reports stream-level (per-scan, not
  /// per-pair) counters — shard 0, so an inactive plan is primary.
  bool primary() const { return shard_id == 0; }

  /// Whether this shard owns the pairs of row `lo`.
  bool OwnsRow(SourceId lo) const {
    return copydetect::OwnsRow(lo, shard_id, num_shards);
  }

  Status Validate() const;
};

}  // namespace copydetect

#endif  // COPYDETECT_MODEL_SHARD_PLAN_H_
