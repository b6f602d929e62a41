#include "core/hybrid.h"

namespace copydetect {

Status HybridDetector::DetectRound(const DetectionInput& in, int round,
                                   CopyResult* out) {
  (void)round;
  return DetectWithBookkeeping(in, out, nullptr);
}

Status HybridDetector::DetectWithBookkeeping(const DetectionInput& in,
                                             CopyResult* out,
                                             ScanBookkeeping* book) {
  CD_RETURN_IF_ERROR(in.Validate());
  ScanConfig config;
  config.lazy_bounds = true;
  config.hybrid_threshold = params_.hybrid_threshold;
  config.ordering = ordering_;
  config.seed = seed_;
  return BoundedScan(in, params_, config, overlap_cache_.Get(*in.data),
                     &counters_, out, book, /*extras=*/nullptr);
}

}  // namespace copydetect
