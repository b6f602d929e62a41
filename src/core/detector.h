#ifndef COPYDETECT_CORE_DETECTOR_H_
#define COPYDETECT_CORE_DETECTOR_H_

#include <vector>

#include "common/status.h"
#include "core/copy_result.h"
#include "core/counters.h"
#include "core/params.h"
#include "model/dataset.h"
#include "simjoin/overlap.h"

namespace copydetect {

/// Everything a detection round reads: the static data set, its
/// overlap counts, and the fusion loop's current estimates. Value
/// probabilities are per slot (see Dataset), accuracies per source.
/// The run's owner holds `overlaps` and hands the same cache to every
/// round; a detector calls overlaps->Get(*data) (or Plan(*data), the
/// INDEX family's pair ids) only after Validate(), so the counts and
/// the plan are computed at most once per data set, by the first round
/// that reads them. Validate() refuses any null field.
struct DetectionInput {
  const Dataset* data = nullptr;
  OverlapCache* overlaps = nullptr;
  const std::vector<double>* value_probs = nullptr;
  const std::vector<double>* accuracies = nullptr;

  Status Validate() const;
};

/// Interface every copy-detection algorithm implements. Detectors may
/// keep cross-round state (INCREMENTAL does); `round` is the 1-based
/// fusion round. Counters accumulate across rounds until Reset().
class CopyDetector {
 public:
  virtual ~CopyDetector() = default;

  /// Runs one detection round. `out` is cleared first.
  virtual Status DetectRound(const DetectionInput& in, int round,
                             CopyResult* out) = 0;

  /// Drops any cross-round state and zeroes counters.
  virtual void Reset() { counters_.Reset(); }

  const Counters& counters() const { return counters_; }
  const DetectionParams& params() const { return params_; }

 protected:
  explicit CopyDetector(const DetectionParams& params)
      : params_(params) {}

  DetectionParams params_;
  Counters counters_;
};

}  // namespace copydetect

#endif  // COPYDETECT_CORE_DETECTOR_H_
