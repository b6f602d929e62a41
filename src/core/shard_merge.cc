#include "core/shard_merge.h"

#include <algorithm>
#include <vector>

#include "common/stringutil.h"
#include "model/shard_plan.h"

namespace copydetect {

Status MergeShardResults(std::span<const ShardResult> shards,
                         CopyResult* copies, Counters* counters) {
  if (shards.empty()) {
    return Status::InvalidArgument("shard merge: no shards to merge");
  }
  const uint32_t n = shards.front().num_shards;
  const int round = shards.front().round;
  if (shards.size() != n) {
    return Status::InvalidArgument(StrFormat(
        "shard merge: got %zu shards of a %u-shard plan", shards.size(),
        n));
  }
  // Index by shard id so the fold order is the plan's order no matter
  // how the caller collected the files.
  std::vector<const ShardResult*> by_id(n, nullptr);
  for (const ShardResult& s : shards) {
    if (s.num_shards != n) {
      return Status::InvalidArgument(StrFormat(
          "shard merge: shard %u was produced for a %u-shard plan, "
          "expected %u",
          s.shard_id, s.num_shards, n));
    }
    if (s.round != round) {
      return Status::InvalidArgument(StrFormat(
          "shard merge: shard %u is from round %d, expected round %d",
          s.shard_id, s.round, round));
    }
    if (s.shard_id >= n) {
      return Status::InvalidArgument(StrFormat(
          "shard merge: shard id %u out of range for %u shards",
          s.shard_id, n));
    }
    if (by_id[s.shard_id] != nullptr) {
      return Status::InvalidArgument(StrFormat(
          "shard merge: shard id %u supplied twice", s.shard_id));
    }
    by_id[s.shard_id] = &s;
  }

  copies->Clear();
  for (const ShardResult* s : by_id) {
    // A shard may hold only pairs of the rows it owns, which keeps the
    // shards' pair sets disjoint: the Sets below never overwrite, and a
    // file cut by another partition (or forged) is refused instead of
    // silently losing or doubling pairs. Folding in shard order keeps
    // the merged result deterministic anyway.
    Status owned = Status::OK();
    s->copies.ForEach([&](SourceId a, SourceId b,
                          const PairPosterior& p) {
      if (!owned.ok()) return;
      if (!OwnsRow(std::min(a, b), s->shard_id, n)) {
        owned = Status::InvalidArgument(StrFormat(
            "shard merge: shard %u holds pair (%u, %u), outside the "
            "rows it owns (row mod %u == %u)",
            s->shard_id, a, b, n, s->shard_id));
        return;
      }
      copies->Set(a, b, p);
    });
    CD_RETURN_IF_ERROR(owned);
    *counters += s->counters;
  }
  return Status::OK();
}

}  // namespace copydetect
