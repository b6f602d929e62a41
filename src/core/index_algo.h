#ifndef COPYDETECT_CORE_INDEX_ALGO_H_
#define COPYDETECT_CORE_INDEX_ALGO_H_

#include "core/detector.h"
#include "core/inverted_index.h"

namespace copydetect {

/// The INDEX algorithm (§III): scan the inverted index in decreasing
/// score order, create pair state only for pairs co-occurring in a
/// head (non-tail) entry, accumulate exact contributions for every
/// shared value, and finalize with the different-value penalty
/// ln(1-s)·(l - n). Produces the same binary decisions as PAIRWISE
/// (Prop. 3.5) while skipping pairs that share nothing or only tail
/// values.
///
/// When params.executor runs more than one thread the scan shards *by
/// row ownership* (core/sharded_scan.h: pair (lo, hi) belongs to
/// shard lo mod shard count): every worker steps through the entries
/// in rank order but enumerates only the pairs of the rows it owns,
/// so each pair's floating-point sums are formed in exactly the
/// sequential order and the result is bit-identical to the serial
/// scan at every thread count.
class IndexDetector : public CopyDetector {
 public:
  explicit IndexDetector(const DetectionParams& params,
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

#endif  // COPYDETECT_CORE_INDEX_ALGO_H_
