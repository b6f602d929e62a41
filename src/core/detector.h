#ifndef COPYDETECT_CORE_DETECTOR_H_
#define COPYDETECT_CORE_DETECTOR_H_

#include <vector>

#include "common/status.h"
#include "core/copy_result.h"
#include "core/counters.h"
#include "core/params.h"
#include "model/dataset.h"
#include "model/dataset_delta.h"

namespace copydetect {

class InvertedIndex;

/// Cross-run reuse hints for the online-update path
/// (Session::Update). After a DatasetDelta is applied, parts of a
/// round's detection input are provably bitwise-identical to the same
/// round of the previous run; these hints name them. Every field is
/// optional and ignoring all of them is always correct — a detector
/// that consumes a hint MUST produce output bit-identical to a full
/// recomputation (the hints only mark inputs that cannot have
/// changed).
struct UpdateHints {
  /// The previous run's copy result for this same round. A pair of
  /// clean sources has bitwise-identical pair-local inputs, so
  /// pair-local detectors (PAIRWISE) may splice the cached posterior
  /// instead of recomputing it.
  const CopyResult* cached = nullptr;
  /// Per source: 1 when the source's detection inputs are unchanged
  /// since the previous run's same round — untouched by the delta,
  /// accuracy bitwise-equal, and every one of its slots' value
  /// probabilities bitwise-equal.
  const std::vector<uint8_t>* clean_sources = nullptr;

  /// The previous run's round-1 inverted index plus the accuracies it
  /// was scored with — InvertedIndex::Rebase inputs for index-family
  /// detectors (sound at round 1, where accuracies are the initial
  /// constant; Rebase itself falls back to a full build otherwise).
  const InvertedIndex* prev_index = nullptr;
  const std::vector<double>* prev_index_accuracies = nullptr;
  /// What the delta touched, in the new snapshot's id space.
  const DeltaSummary* summary = nullptr;

  /// True when the pair's cached posterior may be spliced.
  bool PairReusable(SourceId a, SourceId b) const {
    return cached != nullptr && clean_sources != nullptr &&
           (*clean_sources)[a] != 0 && (*clean_sources)[b] != 0;
  }
};

/// Everything a detection round reads: the static data set plus the
/// fusion loop's current estimates. Value probabilities are per slot
/// (see Dataset), accuracies per source.
struct DetectionInput {
  const Dataset* data = nullptr;
  const std::vector<double>* value_probs = nullptr;
  const std::vector<double>* accuracies = nullptr;

  /// Optional online-update reuse hints; null in ordinary runs.
  const UpdateHints* hints = nullptr;
  /// Optional recording sink: a detector that builds a full
  /// InvertedIndex for a round stores a copy here so the update path
  /// can Rebase it next run. Detectors without an index leave it
  /// untouched.
  InvertedIndex* index_sink = nullptr;

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
