#ifndef COPYDETECT_CORE_SHARDED_DETECTOR_H_
#define COPYDETECT_CORE_SHARDED_DETECTOR_H_

#include <memory>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "core/detector.h"

namespace copydetect {

/// In-process N-shard harness: wraps N instances of one registered
/// detector, each pinned to shard i of an N-way ShardPlan, and merges
/// their partial results through MergeShardResults every round. The
/// output contract is bit-identity with the unsharded detector — the
/// same guarantee the multi-process CLI path provides, testable
/// without spawning processes. Inner detectors are long-lived, so
/// stateful algorithms (INCREMENTAL's cross-round pair states) keep
/// their per-shard state and stay bit-identical too.
class ShardedDetector : public CopyDetector {
 public:
  /// Builds `num_shards` fresh instances of the registered detector
  /// `inner_name`, shard i seeing `params` with plan {num_shards, i}.
  static StatusOr<std::unique_ptr<ShardedDetector>> Create(
      std::string_view inner_name, const DetectionParams& params,
      uint32_t num_shards);

  Status DetectRound(const DetectionInput& in, int round,
                     CopyResult* out) override;

  void Reset() override;

 private:
  ShardedDetector(const DetectionParams& params,
                  std::vector<std::unique_ptr<CopyDetector>> inners)
      : CopyDetector(params), inners_(std::move(inners)) {}

  std::vector<std::unique_ptr<CopyDetector>> inners_;
};

}  // namespace copydetect

#endif  // COPYDETECT_CORE_SHARDED_DETECTOR_H_
