#ifndef COPYDETECT_MODEL_SHARD_PLAN_H_
#define COPYDETECT_MODEL_SHARD_PLAN_H_

#include <cstdint>

#include "common/flat_hash.h"
#include "common/status.h"
#include "model/types.h"

namespace copydetect {

/// Deterministic pair-space partition for multi-process detection. A
/// plan {num_shards, shard_id} makes a detector process only the
/// source pairs it owns, by a salted Mix64 of the pair key; merging
/// every shard's partial posteriors in fixed shard order reproduces
/// the single-process run bit for bit, because each pair's
/// floating-point accumulation happens entirely inside its one owning
/// shard (the same argument that makes the threaded scan, which
/// partitions by row ownership in core/sharded_scan.h, deterministic).
/// The two partitions compose: a plan shard's pairs spread over its
/// threads by their smaller source.
struct ShardPlan {
  uint32_t num_shards = 1;
  uint32_t shard_id = 0;

  /// True when the plan actually partitions (more than one shard).
  bool active() const { return num_shards > 1; }

  /// True for the shard that reports stream-level (per-scan, not
  /// per-pair) counters — shard 0, so an inactive plan is primary.
  bool primary() const { return shard_id == 0; }

  /// Whether this shard owns `pair_key` (PairKey(a, b), a < b).
  /// Every key is owned by exactly one shard of a plan.
  bool Owns(uint64_t pair_key) const {
    return num_shards <= 1 ||
           Mix64(pair_key ^ kOwnershipSalt) % num_shards == shard_id;
  }

  Status Validate() const;

 private:
  // The thread split partitions by row, not by this hash, so nothing
  // depends on the salt but the shard-file wire contract
  // (docs/FORMATS.md, SHARD): changing it invalidates emitted shards.
  static constexpr uint64_t kOwnershipSalt = 0x9e3779b97f4a7c15ULL;
};

}  // namespace copydetect

#endif  // COPYDETECT_MODEL_SHARD_PLAN_H_
