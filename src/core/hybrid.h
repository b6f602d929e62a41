#ifndef COPYDETECT_CORE_HYBRID_H_
#define COPYDETECT_CORE_HYBRID_H_

#include "core/bound.h"

namespace copydetect {

/// HYBRID (§IV end): INDEX bookkeeping for pairs sharing at most
/// `params.hybrid_threshold` items (bound computation would cost more
/// than it saves there), BOUND+ for everything else.
class HybridDetector : public CopyDetector {
 public:
  explicit HybridDetector(const DetectionParams& params,
                          EntryOrdering ordering =
                              EntryOrdering::kByContribution,
                          uint64_t seed = 1)
      : CopyDetector(params), ordering_(ordering), seed_(seed) {}

  Status DetectRound(const DetectionInput& in, int round,
                     CopyResult* out) override;

 private:
  EntryOrdering ordering_;
  uint64_t seed_;
};

}  // namespace copydetect

#endif  // COPYDETECT_CORE_HYBRID_H_
