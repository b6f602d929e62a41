#ifndef COPYDETECT_CORE_SAMPLING_H_
#define COPYDETECT_CORE_SAMPLING_H_

#include <memory>
#include <vector>

#include "core/detector.h"
#include "model/dataset.h"

namespace copydetect {

/// The three sampling strategies compared in §VI-E / Table IX.
enum class SamplingMethod {
  kByItem,       ///< uniform item sample (SAMPLE1 / BYITEM)
  kByCell,       ///< items until a target fraction of cells (BYCELL)
  kScaleSample,  ///< item sample + >= N items per source (SCALESAMPLE)
};

/// Sampling specification. `rate` is the item fraction for kByItem and
/// kScaleSample and the non-empty-cell fraction for kByCell.
struct SampleSpec {
  SamplingMethod method = SamplingMethod::kScaleSample;
  double rate = 0.1;
  /// SCALESAMPLE's N: minimum items kept per source when possible.
  size_t min_items_per_source = 4;
  uint64_t seed = 42;
};

/// A sampled data set plus the mappings back into the full one.
/// Sources keep their ids (every source is registered even when it
/// loses all items), so copy-detection results transfer verbatim.
struct SampledData {
  Dataset data;
  std::vector<ItemId> item_map;  ///< new item id -> full item id
  std::vector<SlotId> slot_map;  ///< new slot id -> full slot id
  /// Fractions actually achieved (SCALESAMPLE overshoots its item rate
  /// on low-coverage data — the paper reports 49% items / 65% cells on
  /// Book-CS from a nominal 10%).
  double item_fraction = 0.0;
  double cell_fraction = 0.0;
};

/// Draws a sample according to `spec`. Deterministic in (data, spec).
StatusOr<SampledData> SampleDataset(const Dataset& full,
                                    const SampleSpec& spec);

/// Wraps any detector to run on a sample of the data set; the sample
/// is drawn once per data set (keyed on Dataset::generation(), like
/// OverlapCache) and reused across rounds (the paper's SCALESAMPLE
/// applies INCREMENTAL on one sample). Value probabilities are
/// projected through the slot mapping each round. The wrapper owns the
/// sample's overlap counts and hands them to the base detector; the
/// full data set's counts in the caller's input are never read.
class SampledDetector : public CopyDetector {
 public:
  SampledDetector(const DetectionParams& params,
                  std::unique_ptr<CopyDetector> base,
                  const SampleSpec& spec);

  Status DetectRound(const DetectionInput& in, int round,
                     CopyResult* out) override;

  void Reset() override;

  /// The sample drawn for the current data set (null before first use).
  const SampledData* sample() const { return sample_.get(); }
  /// The wrapped detector, so callers (e.g. the Session facade's
  /// incremental-stats surfacing) can see through the sampling layer.
  const CopyDetector& base() const { return *base_; }

 private:
  std::unique_ptr<CopyDetector> base_;
  SampleSpec spec_;
  uint64_t sampled_generation_ = 0;
  std::unique_ptr<SampledData> sample_;
  OverlapCache sample_overlaps_;
  std::vector<double> projected_probs_;
};

}  // namespace copydetect

#endif  // COPYDETECT_CORE_SAMPLING_H_
