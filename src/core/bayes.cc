#include "core/bayes.h"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace copydetect {

double NoCopyPosterior(double c_fwd, double c_bwd,
                       const DetectionParams& params) {
  // 1 / (1 + exp(L + logaddexp(c_fwd, c_bwd))), L = ln(alpha/beta).
  double m = std::max(c_fwd, c_bwd);
  double lse = m + std::log(std::exp(c_fwd - m) + std::exp(c_bwd - m));
  double z = std::log(params.alpha / params.beta()) + lse;
  if (z > 700.0) return 0.0;
  return 1.0 / (1.0 + std::exp(z));
}

Posteriors DirectionPosteriors(double c_fwd, double c_bwd,
                               const PosteriorPrior& prior) {
  double lb = prior.log_beta;
  double lf = prior.log_alpha + c_fwd;
  double lw = prior.log_alpha + c_bwd;
  double m = std::max({lb, lf, lw});
  double eb = ExpOfDifference(lb, m);
  double ef = ExpOfDifference(lf, m);
  double ew = ExpOfDifference(lw, m);
  double z = eb + ef + ew;
  Posteriors out;
  out.indep = eb / z;
  out.fwd = ef / z;
  out.bwd = ew / z;
  return out;
}

namespace {

/// Accuracy extremes of a provider multiset — the only values the
/// Prop. 3.1 maximizer can use.
struct AccuracyExtremes {
  double a_min = 2.0;
  double a_secmin = 2.0;
  double a_max = -1.0;
  double a_secmax = -1.0;

  void Observe(double a) {
    if (a <= a_min) {
      a_secmin = a_min;
      a_min = a;
    } else if (a < a_secmin) {
      a_secmin = a;
    }
    if (a >= a_max) {
      a_secmax = a_max;
      a_max = a;
    } else if (a > a_secmax) {
      a_secmax = a;
    }
  }
};

double MaxEntryFromExtremes(const AccuracyExtremes& ex, double p,
                            const DetectionParams& params);

}  // namespace

double MaxEntryContribution(std::span<const double> accuracies, double p,
                            const DetectionParams& params) {
  assert(accuracies.size() >= 2);
  // Prop. 3.1 observes that the maximizing pair uses extreme provider
  // accuracies. We implement the complete extreme-point argument (which
  // subsumes the paper's three-case split and is robust at its case
  // boundaries): Eq. 6's ratio is linear-over-linear in each accuracy
  // with a positive denominator, hence monotone in each argument, so
  // the maximizer has a1 ∈ {min, max} and a2 an extreme of the
  // remaining multiset. Four candidate evaluations suffice.
  AccuracyExtremes ex;
  for (double a : accuracies) ex.Observe(a);
  return MaxEntryFromExtremes(ex, p, params);
}

double MaxEntryContribution(std::span<const SourceId> providers,
                            std::span<const double> accuracies, double p,
                            const DetectionParams& params) {
  assert(providers.size() >= 2);
  AccuracyExtremes ex;
  for (SourceId s : providers) ex.Observe(accuracies[s]);
  return MaxEntryFromExtremes(ex, p, params);
}

namespace {

double MaxEntryFromExtremes(const AccuracyExtremes& ex, double p,
                            const DetectionParams& params) {
  const double a_min = ex.a_min;
  const double a_secmin = ex.a_secmin;
  const double a_max = ex.a_max;
  const double a_secmax = ex.a_secmax;

  p = ClampProbability(p);
  // Each argument of the optimum is an extreme of the provider multiset
  // minus the instance used by the other argument, giving six
  // candidates (the paper's case 2 — S1 = second-min, S2 = min — is
  // among them). ln(1-s+s·r) is monotone in the likelihood ratio r, so
  // maximize r first and take a single log — this sits on the
  // per-entry hot path of every index (re)build.
  auto ratio = [&](double a1, double a2) {
    a1 = ClampAccuracy(a1);
    a2 = ClampAccuracy(a2);
    return CopiedValueProb(p, a2) /
           IndependentSharedProb(p, a1, a2, params);
  };
  double best_r = ratio(a_min, a_secmin);
  best_r = std::max(best_r, ratio(a_min, a_max));
  best_r = std::max(best_r, ratio(a_max, a_min));
  best_r = std::max(best_r, ratio(a_max, a_secmax));
  best_r = std::max(best_r, ratio(a_secmin, a_min));
  best_r = std::max(best_r, ratio(a_secmax, a_max));
  return std::log(1.0 - params.s + params.s * best_r);
}

}  // namespace

double BruteForceMaxEntryContribution(std::span<const double> accuracies,
                                      double p,
                                      const DetectionParams& params) {
  assert(accuracies.size() >= 2);
  double best = -1e300;
  for (size_t i = 0; i < accuracies.size(); ++i) {
    for (size_t j = 0; j < accuracies.size(); ++j) {
      if (i == j) continue;
      best = std::max(
          best, SharedContribution(p, accuracies[i], accuracies[j],
                                   params));
    }
  }
  return best;
}

}  // namespace copydetect
