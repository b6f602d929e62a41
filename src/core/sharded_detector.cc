#include "core/sharded_detector.h"

#include <utility>

#include "core/detector_registry.h"
#include "core/shard_merge.h"

namespace copydetect {

StatusOr<std::unique_ptr<ShardedDetector>> ShardedDetector::Create(
    std::string_view inner_name, const DetectionParams& params,
    uint32_t num_shards) {
  if (num_shards == 0) {
    return Status::InvalidArgument(
        "sharded detector: num_shards must be at least 1");
  }
  std::vector<std::unique_ptr<CopyDetector>> inners;
  inners.reserve(num_shards);
  for (uint32_t i = 0; i < num_shards; ++i) {
    DetectionParams shard_params = params;
    shard_params.plan.num_shards = num_shards;
    shard_params.plan.shard_id = i;
    auto made = CreateDetector(inner_name, shard_params);
    if (!made.ok()) return made.status();
    inners.push_back(std::move(made).value());
  }
  // cd-lint: allow(banned-new-delete) private ctor; make_unique cannot reach it
  return std::unique_ptr<ShardedDetector>(new ShardedDetector(
      params, std::move(inners)));
}

Status ShardedDetector::DetectRound(const DetectionInput& in, int round,
                                    CopyResult* out) {
  // Shards run sequentially against identical input.
  std::vector<ShardResult> partials(inners_.size());
  for (size_t i = 0; i < inners_.size(); ++i) {
    ShardResult& part = partials[i];
    part.num_shards = static_cast<uint32_t>(inners_.size());
    part.shard_id = static_cast<uint32_t>(i);
    part.round = round;
    CD_RETURN_IF_ERROR(
        inners_[i]->DetectRound(in, round, &part.copies));
    part.counters = inners_[i]->counters();
  }

  // Inner counters accumulate across rounds already, so the wrapper's
  // view is re-summed, not re-accumulated.
  Counters merged;
  CD_RETURN_IF_ERROR(MergeShardResults(partials, out, &merged));
  counters_ = merged;
  return Status::OK();
}

void ShardedDetector::Reset() {
  CopyDetector::Reset();
  for (auto& inner : inners_) inner->Reset();
}

}  // namespace copydetect
