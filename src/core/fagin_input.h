#ifndef COPYDETECT_CORE_FAGIN_INPUT_H_
#define COPYDETECT_CORE_FAGIN_INPUT_H_

#include <vector>

#include "core/detector.h"
#include "topk/nra.h"

namespace copydetect {

/// The input the FAGININPUT baseline (§II-B end) must generate before
/// Fagin's NRA can run: one descending-sorted list of per-pair
/// contribution scores per indexed value, plus one list of accumulated
/// different-value scores, for each direction.
struct FaginInput {
  std::vector<NraList> fwd_lists;  ///< per-entry lists + trailing diff list
  std::vector<NraList> bwd_lists;
};

/// Materializes the NRA input, reading the shared-item counts from
/// `in.overlaps`. This already costs as much as a full INDEX scan —
/// the paper's argument for why the NRA route cannot win.
StatusOr<FaginInput> BuildFaginInput(const DetectionInput& in,
                                     const DetectionParams& params,
                                     Counters* counters);

/// Top-k candidate copier pairs by forward score via NRA over the
/// generated lists (used by tests and the Table X bench).
NraResult FaginTopK(const FaginInput& input, size_t k, bool forward);

/// Detector wrapper: generates the NRA input each round, then
/// aggregates the lists exactly into pair posteriors. Functionally
/// equivalent to INDEX without tail skipping; exists to measure the
/// baseline's cost (Table X).
class FaginInputDetector : public CopyDetector {
 public:
  explicit FaginInputDetector(const DetectionParams& params)
      : CopyDetector(params) {}

  Status DetectRound(const DetectionInput& in, int round,
                     CopyResult* out) override;
};

}  // namespace copydetect

#endif  // COPYDETECT_CORE_FAGIN_INPUT_H_
