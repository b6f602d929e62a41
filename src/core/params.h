#ifndef COPYDETECT_CORE_PARAMS_H_
#define COPYDETECT_CORE_PARAMS_H_

#include <algorithm>
#include <cmath>
#include <cstddef>

#include "common/status.h"

namespace copydetect {

class Executor;

/// Parameters of the Bayesian copy-detection model (§II) and of the
/// scalability machinery (§III–V). Defaults follow the paper's running
/// example: alpha = 0.1, s = 0.8, n = 50.
struct DetectionParams {
  /// A-priori probability that one source copies from another
  /// (0 < alpha < 0.25 so that the no-copying threshold stays
  /// positive; see Validate()). beta = 1 - 2*alpha is derived.
  double alpha = 0.1;
  /// Copy selectivity: probability the copier copies a given item.
  double s = 0.8;
  /// Number of uniformly distributed false values per item.
  double n = 50.0;

  /// HYBRID switches from INDEX to BOUND+ bookkeeping for pairs sharing
  /// more than this many items (the paper found 16 empirically).
  size_t hybrid_threshold = 16;

  /// INCREMENTAL: a source accuracy change above this forces full
  /// re-detection for its pairs (paper: 0.2).
  double rho_accuracy = 0.2;
  /// INCREMENTAL: an entry score change above this is a "big change"
  /// (paper: 1.0, chosen from the largest gap in observed changes).
  double rho_value = 1.0;

  /// Shared execution backend (common/executor.h) for the parallel
  /// scan paths and the fusion loop's per-item aggregation. Not owned;
  /// null (or a 1-thread executor) runs everything sequentially. The
  /// parallel paths are bit-identical to the sequential ones at any
  /// thread count, so this is purely a speed knob.
  Executor* executor = nullptr;

  double beta() const { return 1.0 - 2.0 * alpha; }
  /// No-copying threshold theta_ind = ln(beta / (2 alpha)): both Cmax
  /// below it certifies Pr(independence) > 0.5.
  double theta_ind() const { return std::log(beta() / (2.0 * alpha)); }
  /// Copying threshold theta_cp = ln(beta / alpha): either Cmin at or
  /// above it certifies Pr(independence) <= 0.5.
  double theta_cp() const { return std::log(beta() / alpha); }
  /// Per-item penalty for providing different values, ln(1 - s) (Eq. 8).
  double different_penalty() const { return std::log(1.0 - s); }

  /// Validates ranges; returns InvalidArgument with a reason otherwise.
  Status Validate() const;
};

/// Clamps a source accuracy into the open interval the formulas need
/// (A in {0,1} makes Eq. 3 degenerate). Mirrors the iterative loop's
/// clamping so detection and fusion agree.
inline double ClampAccuracy(double a) {
  return std::clamp(a, 0.005, 0.995);
}

/// Clamps a value probability into (0, 1) for the same reason.
inline double ClampProbability(double p) {
  return std::clamp(p, 1e-6, 1.0 - 1e-6);
}

/// exp(x - m) for a softmax over terms x with maximum m
/// (DirectionPosteriors, ComputeValueProbs). The term equal to m skips
/// the exp: exp(+0) and exp(-0) are exactly 1, so the result is
/// bit-identical to std::exp(x - m) for every input, NaN included.
inline double ExpOfDifference(double x, double m) {
  const double d = x - m;
  return d == 0.0 ? 1.0 : std::exp(d);
}

}  // namespace copydetect

#endif  // COPYDETECT_CORE_PARAMS_H_
