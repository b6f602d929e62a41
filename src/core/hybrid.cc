#include "core/hybrid.h"

namespace copydetect {

Status HybridDetector::DetectRound(const DetectionInput& in, int round,
                                   CopyResult* out) {
  (void)round;
  ScanConfig config;
  config.lazy_bounds = true;
  config.hybrid_threshold = params_.hybrid_threshold;
  config.ordering = ordering_;
  config.seed = seed_;
  return BoundedScan(in, params_, config, &counters_, out,
                     /*book=*/nullptr, /*extras=*/nullptr);
}

}  // namespace copydetect
