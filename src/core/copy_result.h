#ifndef COPYDETECT_CORE_COPY_RESULT_H_
#define COPYDETECT_CORE_COPY_RESULT_H_

#include <cstdint>
#include <vector>

#include "common/flat_hash.h"
#include "model/types.h"

namespace copydetect {

/// Posterior for one unordered pair of sources (a < b).
struct PairPosterior {
  double p_indep = 1.0;       ///< Pr(a ⊥ b)
  double p_first_copies = 0;  ///< Pr(a copies from b)
  double p_second_copies = 0; ///< Pr(b copies from a)

  bool IsCopying() const { return p_indep <= 0.5; }
};

/// Output of one copy-detection round: posteriors for every pair the
/// detector tracked. Pairs absent from the result are implicitly
/// independent (the INDEX-family algorithms legitimately skip pairs
/// whose evidence cannot reach the copying threshold).
class CopyResult {
 public:
  /// Records the posterior for pair (a, b). Order-insensitive: the
  /// posterior must be expressed for (min(a,b), max(a,b)).
  void Set(SourceId a, SourceId b, const PairPosterior& posterior);

  /// Posterior for (a, b); identity posterior when untracked.
  PairPosterior Get(SourceId a, SourceId b) const;

  /// Pr(copier copies from original), direction-aware.
  double PrCopies(SourceId copier, SourceId original) const;

  /// True when the pair was concluded as copying (p_indep <= 0.5).
  bool IsCopying(SourceId a, SourceId b) const;

  /// All pairs concluded as copying, as packed PairKeys (unsorted).
  std::vector<uint64_t> CopyingPairs() const;

  /// CopyingPairs().size(), kept as pairs are written: O(1).
  size_t NumCopying() const { return num_copying_; }

  /// Number of tracked pairs.
  size_t NumTracked() const { return map_.size(); }

  /// Sources with at least one copying relation get their vote
  /// discounted in fusion; expose iteration for that.
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    map_.ForEach([&fn](uint64_t key, const PairPosterior& p) {
      fn(PairFirst(key), PairSecond(key), p);
    });
  }

  void Clear() {
    map_.Clear();
    num_copying_ = 0;
  }

  // --- Snapshot serialization (internal; see snapshot/snapshot_io.h).
  /// The underlying pair map, exact table layout included.
  const FlatHashMap<PairPosterior>& raw_map() const { return map_; }
  /// Restores from a map reassembled out of raw_map() arrays.
  static CopyResult FromRawMap(FlatHashMap<PairPosterior> map) {
    CopyResult result;
    result.map_ = std::move(map);
    result.map_.ForEach([&result](uint64_t, const PairPosterior& p) {
      if (p.IsCopying()) ++result.num_copying_;
    });
    return result;
  }

 private:
  FlatHashMap<PairPosterior> map_;
  size_t num_copying_ = 0;  // entries of map_ with IsCopying()
};

}  // namespace copydetect

#endif  // COPYDETECT_CORE_COPY_RESULT_H_
