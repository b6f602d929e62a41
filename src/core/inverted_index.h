#ifndef COPYDETECT_CORE_INVERTED_INDEX_H_
#define COPYDETECT_CORE_INVERTED_INDEX_H_

#include <cstdint>
#include <span>
#include <vector>

#include "common/status.h"
#include "core/detector.h"
#include "core/params.h"
#include "model/dataset.h"

namespace copydetect {

/// Order in which index entries are processed (Figure 3's comparison).
enum class EntryOrdering {
  kByContribution,  ///< decreasing M̂ score — the paper's proposal
  kByProvider,      ///< increasing number of providers
  kRandom,          ///< random permutation (baseline)
};

std::string_view EntryOrderingName(EntryOrdering ordering);

/// One entry of the inverted index (Definition 3.2): a value provided
/// by at least two sources, its current truth probability and its
/// maximum contribution score M̂ (Prop. 3.1). Provider lists live in
/// the Dataset — an entry references its slot.
struct IndexEntry {
  SlotId slot = kInvalidSlot;
  double probability = 0.0;
  double score = 0.0;
};

/// The specialized inverted index of §III. The shared-item counts
/// l(S1,S2) the scan algorithms need at finalization time live in the
/// run's OverlapCache (DetectionInput::overlaps, simjoin substrate):
/// they are static across fusion rounds while the index is rebuilt or
/// rescored per round.
class InvertedIndex {
 public:
  /// Builds the index. For kByContribution the tail set E̅ (the maximal
  /// lowest-score suffix whose total score stays below theta_ind) is
  /// computed; other orderings process every entry as head entries.
  /// `seed` only affects kRandom.
  static StatusOr<InvertedIndex> Build(const DetectionInput& in,
                                       const DetectionParams& params,
                                       EntryOrdering ordering =
                                           EntryOrdering::kByContribution,
                                       uint64_t seed = 1);

  size_t num_entries() const { return entries_.size(); }
  const IndexEntry& entry(size_t rank) const { return entries_[rank]; }

  /// Providers of the entry at `rank` (>= 2 by construction).
  std::span<const SourceId> providers(size_t rank) const {
    return data_->providers(entries_[rank].slot);
  }

  /// First rank belonging to the tail set E̅.
  size_t tail_begin() const { return tail_begin_; }
  bool in_tail(size_t rank) const { return rank >= tail_begin_; }

  const Dataset& data() const { return *data_; }
  EntryOrdering ordering() const { return ordering_; }

  /// Recomputes per-entry probability and score from fresh estimates
  /// while keeping the entry order and tail boundary frozen — the
  /// INCREMENTAL contract (§V freezes the decision points, which are
  /// ranks into this order).
  void Rescore(const DetectionInput& in, const DetectionParams& params);

 private:
  const Dataset* data_ = nullptr;
  std::vector<IndexEntry> entries_;
  size_t tail_begin_ = 0;
  EntryOrdering ordering_ = EntryOrdering::kByContribution;
};

namespace inverted_index_internal {

/// The kByContribution order: decreasing score, with -0.0 equal to
/// +0.0. A stable LSD radix sort on an order-preserving 64-bit key of
/// -score, so entries of equal score keep their input order; Build
/// appends entries in ascending slot order, which makes the result the
/// permutation a comparator sort on (score desc, slot asc) yields.
void SortByContribution(std::vector<IndexEntry>* entries);

}  // namespace inverted_index_internal

}  // namespace copydetect

#endif  // COPYDETECT_CORE_INVERTED_INDEX_H_
