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

/// One clamped accuracy a with the factors of Eq. 3 and Eq. 4 it
/// contributes, for a clamped p and q = 1 - p: p·a, q·(1-a) and
/// CopiedValueProb(p, a) = p·a + q·(1-a), each rounded exactly as the
/// inline formulas round it.
struct ClampedAccuracy {
  ClampedAccuracy(double accuracy, double p, double q)
      : a(ClampAccuracy(accuracy)),
        one_minus(1.0 - a),
        p_a(p * a),
        q_one_minus(q * one_minus),
        copied(p_a + q_one_minus) {}

  double a;
  double one_minus;
  double p_a;
  double q_one_minus;
  double copied;
};

/// Eq. 6's likelihood ratio CopiedValueProb(p, a2) /
/// IndependentSharedProb(p, a1, a2) with a1 the copier's accuracy,
/// in the association of the inline formulas: (p·a1)·a2 +
/// ((q·(1-a1))·(1-a2))/n.
double CopyRatio(const ClampedAccuracy& a1, const ClampedAccuracy& a2,
                 const DetectionParams& params) {
  return a2.copied /
         (a1.p_a * a2.a + a1.q_one_minus * a2.one_minus / params.n);
}

/// ln(1-s+s·r) is monotone in the likelihood ratio r, so the maximizer
/// maximizes r first and takes a single log — this sits on the
/// per-entry hot path of every index (re)build.
double ContributionOfRatio(double r, const DetectionParams& params) {
  return std::log(1.0 - params.s + params.s * r);
}

double MaxEntryFromExtremes(const AccuracyExtremes& ex, double p,
                            const DetectionParams& params) {
  p = ClampProbability(p);
  const double q = 1.0 - p;
  const ClampedAccuracy lo(ex.a_min, p, q);
  const ClampedAccuracy lo2(ex.a_secmin, p, q);
  const ClampedAccuracy hi(ex.a_max, p, q);
  const ClampedAccuracy hi2(ex.a_secmax, p, q);
  // Each argument of the optimum is an extreme of the provider multiset
  // minus the instance used by the other argument, giving six
  // candidates (the paper's case 2 — S1 = second-min, S2 = min — is
  // among them).
  double best_r = CopyRatio(lo, lo2, params);
  best_r = std::max(best_r, CopyRatio(lo, hi, params));
  best_r = std::max(best_r, CopyRatio(hi, lo, params));
  best_r = std::max(best_r, CopyRatio(hi, hi2, params));
  best_r = std::max(best_r, CopyRatio(lo2, lo, params));
  best_r = std::max(best_r, CopyRatio(hi2, hi, params));
  return ContributionOfRatio(best_r, params);
}

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
  if (providers.size() == 2) {
    // Two providers are each other's extremes: the six candidates
    // are the two orders of the pair, each evaluated three times.
    p = ClampProbability(p);
    const double q = 1.0 - p;
    const ClampedAccuracy x(accuracies[providers[0]], p, q);
    const ClampedAccuracy y(accuracies[providers[1]], p, q);
    return ContributionOfRatio(
        std::max(CopyRatio(x, y, params), CopyRatio(y, x, params)), params);
  }
  AccuracyExtremes ex;
  for (SourceId s : providers) ex.Observe(accuracies[s]);
  return MaxEntryFromExtremes(ex, p, params);
}

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
