#ifndef COPYDETECT_CORE_BAYES_H_
#define COPYDETECT_CORE_BAYES_H_

#include <cmath>
#include <cstdint>
#include <span>

#include "model/types.h"

#include "core/params.h"

namespace copydetect {

// The per-shared-value kernels below are inline: every shared value of
// an INDEX, BOUND or HYBRID scan evaluates SharedContribution twice.

/// Probability that two *independent* sources S1, S2 both provide the
/// same value v on an item, given Pr(v true) = p and accuracies a1, a2
/// (Eq. 3):  p·a1·a2 + (1-p)·(1-a1)(1-a2)/n.
inline double IndependentSharedProb(double p, double a1, double a2,
                                    const DetectionParams& params) {
  return p * a1 * a2 + (1.0 - p) * (1.0 - a1) * (1.0 - a2) / params.n;
}

/// Probability of observing S2's value when the copier copied it
/// (Eq. 4):  p·a2 + (1-p)(1-a2).
inline double CopiedValueProb(double p, double a2) {
  return p * a2 + (1.0 - p) * (1.0 - a2);
}

/// Contribution score C→(D) of a *shared* value to "S1 copies from S2"
/// (Eq. 6):  ln(1 - s + s · CopiedValueProb / IndependentSharedProb).
/// a1 is the candidate copier's accuracy, a2 the candidate original's.
/// Positive for plausible values, larger for improbable (false) values.
inline double SharedContribution(double p, double a1, double a2,
                                 const DetectionParams& params) {
  p = ClampProbability(p);
  a1 = ClampAccuracy(a1);
  a2 = ClampAccuracy(a2);
  double indep = IndependentSharedProb(p, a1, a2, params);
  double copied = CopiedValueProb(p, a2);
  return std::log(1.0 - params.s + params.s * copied / indep);
}

/// Posterior probability of independence given accumulated directional
/// scores (Eq. 2): 1 / (1 + (alpha/beta)(e^{c_fwd} + e^{c_bwd})).
/// Overflow-safe for arbitrarily large scores.
double NoCopyPosterior(double c_fwd, double c_bwd,
                       const DetectionParams& params);

/// The log prior weights of DirectionPosteriors, ln(beta) and
/// ln(alpha). They depend only on the parameters, so a detection round
/// takes them once, not once per pair. Explicit, so that no call site
/// rebuilds them per pair by accident.
struct PosteriorPrior {
  explicit PosteriorPrior(const DetectionParams& params)
      : log_beta(std::log(params.beta())),
        log_alpha(std::log(params.alpha)) {}

  double log_beta;
  double log_alpha;
};

/// Full directional posterior: Pr(independent), Pr(S1→S2) (S1 copies
/// from S2) and Pr(S1←S2), proportional to {beta, alpha·e^{c_fwd},
/// alpha·e^{c_bwd}}. Sums to 1.
struct Posteriors {
  double indep = 1.0;
  double fwd = 0.0;
  double bwd = 0.0;
};
Posteriors DirectionPosteriors(double c_fwd, double c_bwd,
                               const PosteriorPrior& prior);

/// Batched per-pair form of SharedContribution for the PAIRWISE merge
/// loop, which evaluates Eq. 6 for one (S1, S2) pair across every
/// shared value: the accuracy clamps and complements are hoisted once
/// per pair, while each evaluation keeps Eq. 6's exact operation
/// order — so for every p,
///
///   Forward(p)  == SharedContribution(p, a1, a2, params)
///   Backward(p) == SharedContribution(p, a2, a1, params)
///
/// bit for bit. The two directions are separate computations on
/// purpose: p·a1·a2 associates as (p·a1)·a2, so the transposed
/// product (p·a2)·a1 can round differently and must be evaluated
/// exactly as the unbatched call would.
class PairContributionScorer {
 public:
  PairContributionScorer(double a1, double a2,
                         const DetectionParams& params)
      : a1_(ClampAccuracy(a1)),
        a2_(ClampAccuracy(a2)),
        na1_(1.0 - a1_),
        na2_(1.0 - a2_),
        s_(params.s),
        n_(params.n) {}

  /// C→: S1 (accuracy a1) copies this value from S2 (accuracy a2).
  double Forward(double p) const {
    p = ClampProbability(p);
    double indep = p * a1_ * a2_ + (1.0 - p) * na1_ * na2_ / n_;
    double copied = p * a2_ + (1.0 - p) * na2_;
    return std::log(1.0 - s_ + s_ * copied / indep);
  }

  /// C←: S2 copies from S1 — the a2/a1 transpose of Forward.
  double Backward(double p) const {
    p = ClampProbability(p);
    double indep = p * a2_ * a1_ + (1.0 - p) * na2_ * na1_ / n_;
    double copied = p * a1_ + (1.0 - p) * na1_;
    return std::log(1.0 - s_ + s_ * copied / indep);
  }

 private:
  double a1_, a2_, na1_, na2_, s_, n_;
};

/// Per-row form of SharedContribution for the index walks (INDEX,
/// BOUND, HYBRID and FAGININPUT), which evaluate Eq. 6 in both
/// directions for one entry's value p, one row's smaller source lo and
/// each later provider hi. Everything that depends on p and a_lo alone
/// is hoisted into the constructor: the clamps, 1-p, p·a_lo,
/// (1-p)(1-a_lo) and the backward copied term p·a_lo + (1-p)(1-a_lo).
/// Score keeps SharedContribution's exact operation order, so for
/// every a_hi
///
///   Score(a_hi).fwd == SharedContribution(p, a_lo, a_hi, params)
///   Score(a_hi).bwd == SharedContribution(p, a_hi, a_lo, params)
///
/// bit for bit: the forward independent product is (p·a_lo)·a_hi, the
/// backward one (p·a_hi)·a_lo, never the other association. Held in
/// locals, the terms also spare a scan the reloads of p, a_lo, s and n
/// that every pair-state store would otherwise force, since those
/// stores may alias the doubles they were read from.
class RowContributionScorer {
 public:
  struct Scores {
    double fwd;  ///< C→: lo copies this value from hi
    double bwd;  ///< C←: hi copies it from lo
  };

  RowContributionScorer(double p, double a_lo,
                        const DetectionParams& params)
      : p_(ClampProbability(p)),
        np_(1.0 - p_),
        a_lo_(ClampAccuracy(a_lo)),
        na_lo_(1.0 - a_lo_),
        p_a_lo_(p_ * a_lo_),
        np_na_lo_(np_ * na_lo_),
        copied_bwd_(p_a_lo_ + np_na_lo_),
        keep_(1.0 - params.s),
        s_(params.s),
        n_(params.n) {}

  Scores Score(double a_hi) const {
    a_hi = ClampAccuracy(a_hi);
    const double na_hi = 1.0 - a_hi;
    const double p_a_hi = p_ * a_hi;
    const double np_na_hi = np_ * na_hi;
    const double indep_fwd = p_a_lo_ * a_hi + np_na_lo_ * na_hi / n_;
    const double indep_bwd = p_a_hi * a_lo_ + np_na_hi * na_lo_ / n_;
    return {std::log(keep_ + s_ * (p_a_hi + np_na_hi) / indep_fwd),
            std::log(keep_ + s_ * copied_bwd_ / indep_bwd)};
  }

 private:
  double p_, np_, a_lo_, na_lo_, p_a_lo_, np_na_lo_, copied_bwd_;
  double keep_, s_, n_;
};

/// Maximum shared-value contribution M̂(D.v) over ordered provider
/// pairs (Prop. 3.1). Implemented via the complete extreme-point
/// argument — Eq. 6's ratio is monotone in each accuracy, so only the
/// providers' min / second-min / max / second-max accuracies can
/// participate in the maximizer; four evaluations suffice. This
/// subsumes the paper's three-case analysis and is robust at its case
/// boundaries. `accuracies` are the value's providers' accuracies
/// (size >= 2).
double MaxEntryContribution(std::span<const double> accuracies, double p,
                            const DetectionParams& params);

/// Provider-batched form for the index build and INCREMENTAL's
/// rescoring: reads the providers' accuracies straight out of the
/// source-indexed accuracy array instead of a copied-out scratch
/// vector. The extremes scan visits accuracies in the same order as
/// the copy would, so the result is bit-identical to the span
/// overload on the copied values.
double MaxEntryContribution(std::span<const SourceId> providers,
                            std::span<const double> accuracies, double p,
                            const DetectionParams& params);

/// O(k^2) reference maximizer used by tests to validate Prop. 3.1.
double BruteForceMaxEntryContribution(std::span<const double> accuracies,
                                      double p,
                                      const DetectionParams& params);

/// Total different-value adjustment ln(1-s)·(l - n) of the INDEX
/// finalization step (§III Step 3), computed in double space.
/// `l` (shared items) and `n_shared` (shared values) are unsigned
/// counts from different passes; the naive `l - n_shared` wraps to
/// ~4·10^9 whenever a stale overlap cache or crafted input makes
/// n_shared exceed l, exploding the penalty. Widen before subtracting
/// so the mismatch degrades gracefully instead.
inline double DifferentValuePenalty(double per_item_penalty, uint32_t l,
                                    uint32_t n_shared) {
  return per_item_penalty *
         (static_cast<double>(l) - static_cast<double>(n_shared));
}

}  // namespace copydetect

#endif  // COPYDETECT_CORE_BAYES_H_
