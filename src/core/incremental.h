#ifndef COPYDETECT_CORE_INCREMENTAL_H_
#define COPYDETECT_CORE_INCREMENTAL_H_

#include <memory>
#include <vector>

#include "core/bound.h"
#include "core/detector.h"
#include "core/inverted_index.h"

namespace copydetect {

/// INCREMENTAL copy detection (§V): run HYBRID from scratch for the
/// first two rounds (copy-detection results still move a lot there),
/// freeze the inverted index order, tail set and per-pair decision
/// points, then refine decisions in three passes per later round:
///
///  * pass 1 — exact score replacement on big-change entries only
///    (|ΔM̂| > rho_value, measured against the frozen snapshot at
///    fixed accuracies), then a scan-free per-pair resolution using
///    the ∆ρ·n_before worst-case bound for small changes and a suffix
///    score bound (Prop. 3.4) for post-decision entries; pairs whose
///    coarse bound is inconclusive get exact per-pair small-change
///    counts from one cheap counting scan (no score evaluations) and
///    are re-resolved;
///  * pass 2 — still-ambiguous pairs get their exact current score
///    from a single sorted item merge (the stored snapshot-consistent
///    scores are never mutated, which keeps every stored score
///    consistent with one (p, A) snapshot and prevents drift across
///    rounds); decisions that stand terminate here;
///  * pass 3 — flipped pairs migrate to an exact set that is
///    re-evaluated directly in subsequent rounds. Pairs containing a
///    source whose accuracy moved by more than rho_accuracy migrate
///    the same way (§V-A's big-accuracy-change rule).
///
/// Deviations from the paper's letter (documented in docs/DESIGN.md §4):
/// the small-change bulk estimate uses the maximum observed small
/// change (the paper's ∆ρ) but ambiguity is resolved with an exact
/// merge rather than entry-incremental replacement, and flipped pairs
/// leave the incremental system instead of keeping approximate
/// bookkeeping. Both choices are strictly more accurate than the
/// paper's step 5 and preserve the O(r·e') round complexity.
class IncrementalDetector : public CopyDetector {
 public:
  explicit IncrementalDetector(const DetectionParams& params)
      : CopyDetector(params) {}

  Status DetectRound(const DetectionInput& in, int round,
                     CopyResult* out) override;

  void Reset() override;

  /// Per-round pass statistics (Table VIII): how many pairs terminated
  /// at each pass; `exact` counts pairs handled outside the passes.
  struct RoundStats {
    int round = 0;
    uint64_t pass1 = 0;
    uint64_t pass2 = 0;
    uint64_t pass3 = 0;
    uint64_t exact = 0;
    double seconds = 0.0;
    bool from_scratch = false;
  };
  const std::vector<RoundStats>& round_stats() const { return stats_; }

 private:
  struct IncState {
    // Persistent, consistent with the frozen (p_snap_, a_snap_):
    double c_fwd = 0.0;  ///< score incl. different-value penalty
    double c_bwd = 0.0;
    uint32_t l = 0;
    uint32_t decision_rank = 0;
    uint32_t n_before = 0;  ///< shared values at or before the decision
    uint32_t n_after = 0;   ///< shared values after it (|E̅1|)
    int8_t decision = 0;    ///< +1 copying, -1 no-copying
    /// Posterior reported last time the pair's scores moved; reused
    /// verbatim for pass-1 pairs with no exact changes.
    PairPosterior last_post;
    // Per-round scratch:
    /// 0 pending, 1..3 terminated per pass, 4 exact set, 5 failed the
    /// coarse bound and awaits the fine counting scan.
    uint8_t phase = 0;
    double big_fwd = 0.0;
    double big_bwd = 0.0;
    double e1_fine = 0.0;    ///< Σ new entry scores after the decision
    uint32_t small_dec = 0;  ///< small-change entries before it
    uint32_t small_inc = 0;
  };

  Status FromScratchRound(const DetectionInput& in, int round,
                          CopyResult* out);
  Status IncrementalRound(const DetectionInput& in, int round,
                          CopyResult* out);

  bool seeded_ = false;
  std::unique_ptr<InvertedIndex> index_;  // frozen order + tail
  std::vector<double> p_snap_;            // per rank
  std::vector<double> score_snap_;        // per rank (M̂ at snapshot)
  std::vector<double> a_snap_;            // per source
  FlatHashMap<IncState> states_;
  FlatHashSet exact_;  // pairs re-evaluated exactly every round
  std::vector<RoundStats> stats_;
};

}  // namespace copydetect

#endif  // COPYDETECT_CORE_INCREMENTAL_H_
