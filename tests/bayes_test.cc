#include "core/bayes.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "test_util.h"

namespace copydetect {
namespace {

using testutil::PaperParams;

TEST(Thresholds, PaperValues) {
  DetectionParams params = PaperParams();
  // Ex. 4.2: theta_cp = ln(.8/.1) = 2.08, theta_ind = ln(.8/.2) = 1.39.
  EXPECT_NEAR(params.theta_cp(), 2.079, 1e-3);
  EXPECT_NEAR(params.theta_ind(), 1.386, 1e-3);
  // ln(1-s) = ln(.2) = -1.609 (the "-1.6" of the examples).
  EXPECT_NEAR(params.different_penalty(), -1.609, 1e-3);
}

TEST(SharedContribution, Example21SharedFalseValue) {
  // Ex. 2.1: S2, S3 both accuracy .2 share NJ.Atlantic with P = .01;
  // the contribution is 3.89.
  DetectionParams params = PaperParams();
  double c = SharedContribution(0.01, 0.2, 0.2, params);
  EXPECT_NEAR(c, 3.89, 0.01);
}

TEST(DifferentValuePenalty, MatchesHandComputation) {
  DetectionParams params = PaperParams();
  double per_item = params.different_penalty();  // ln(.2) ≈ -1.609
  // 7 shared items, 3 shared values: 4 different items penalized.
  EXPECT_DOUBLE_EQ(DifferentValuePenalty(per_item, 7, 3),
                   per_item * 4.0);
  EXPECT_DOUBLE_EQ(DifferentValuePenalty(per_item, 5, 5), 0.0);
}

TEST(DifferentValuePenalty, NSharedAboveLDoesNotUnderflow) {
  // Regression for the parallel-index finalization: l - n_shared was
  // computed in uint32_t before the cast to double, so a crafted input
  // with n_shared > l (e.g. shared-value counts paired with stale
  // overlap counts from another data set) wrapped to ~4.29e9 and blew
  // the penalty up to ~ -6.9e9 — flipping every affected posterior.
  DetectionParams params = PaperParams();
  double per_item = params.different_penalty();
  double d = DifferentValuePenalty(per_item, 3, 5);
  EXPECT_DOUBLE_EQ(d, per_item * -2.0);
  EXPECT_GT(d, 0.0);           // negative penalty times negative count
  EXPECT_LT(std::abs(d), 10.0);  // graceful, not ~1e9
  // The magnitude the unsigned subtraction used to produce:
  uint32_t wrapped = 3u - 5u;
  EXPECT_GT(static_cast<double>(wrapped), 4.0e9);
}

TEST(SharedContribution, Example21TrueValueIsWeakEvidence) {
  // S0, S1 (accuracy .99) sharing a value with P ~= .96 contributes
  // only ~.01 — sharing true values is weak evidence.
  DetectionParams params = PaperParams();
  double c = SharedContribution(0.96, 0.99, 0.99, params);
  EXPECT_GT(c, 0.0);
  EXPECT_LT(c, 0.02);
}

TEST(SharedContribution, AlwaysPositive) {
  // Sharing any value is positive evidence ([6], cited in §II-A);
  // property over a parameter grid.
  DetectionParams params = PaperParams();
  for (double p : {0.001, 0.01, 0.1, 0.5, 0.9, 0.999}) {
    for (double a1 : {0.01, 0.2, 0.5, 0.8, 0.99}) {
      for (double a2 : {0.01, 0.2, 0.5, 0.8, 0.99}) {
        EXPECT_GT(SharedContribution(p, a1, a2, params), 0.0)
            << "p=" << p << " a1=" << a1 << " a2=" << a2;
      }
    }
  }
}

TEST(SharedContribution, LowerProbabilityStrongerEvidence) {
  // §II-A: the score is larger when the shared value is more likely
  // false (lower P).
  DetectionParams params = PaperParams();
  double prev = 1e300;
  for (double p : {0.01, 0.05, 0.2, 0.5, 0.9}) {
    double c = SharedContribution(p, 0.6, 0.6, params);
    EXPECT_LT(c, prev);
    prev = c;
  }
}

TEST(NoCopyPosterior, Example21CopyingPair) {
  // Ex. 2.1: C→ = C← = 11.58 gives Pr(S2⊥S3) = .00004.
  DetectionParams params = PaperParams();
  double p = NoCopyPosterior(11.58, 11.58, params);
  EXPECT_NEAR(p, 0.00004, 0.00002);
}

TEST(NoCopyPosterior, Example21IndependentPair) {
  // Ex. 2.1: C→ = C← = .04 gives Pr(S0⊥S1) = .79.
  DetectionParams params = PaperParams();
  double p = NoCopyPosterior(0.04, 0.04, params);
  EXPECT_NEAR(p, 0.79, 0.01);
}

TEST(NoCopyPosterior, OverflowSafe) {
  DetectionParams params = PaperParams();
  EXPECT_NEAR(NoCopyPosterior(5000.0, 5000.0, params), 0.0, 1e-12);
  EXPECT_NEAR(NoCopyPosterior(-5000.0, -5000.0, params), 1.0, 1e-12);
  EXPECT_NEAR(NoCopyPosterior(5000.0, -5000.0, params), 0.0, 1e-12);
}

TEST(NoCopyPosterior, ThresholdSemantics) {
  // At C = theta_cp in one direction (other very negative) the
  // posterior sits exactly at 1/2; at both C = theta_ind it also sits
  // at 1/2 — the basis of the early-termination rules (§IV-A).
  DetectionParams params = PaperParams();
  EXPECT_NEAR(NoCopyPosterior(params.theta_cp(), -1e9, params), 0.5,
              1e-9);
  EXPECT_NEAR(
      NoCopyPosterior(params.theta_ind(), params.theta_ind(), params),
      0.5, 1e-9);
}

TEST(DirectionPosteriors, SumsToOneAndAgrees) {
  DetectionParams params = PaperParams();
  Rng rng(7);
  for (int i = 0; i < 200; ++i) {
    double cf = rng.UniformDouble(-20.0, 20.0);
    double cb = rng.UniformDouble(-20.0, 20.0);
    Posteriors post = DirectionPosteriors(cf, cb, PosteriorPrior(params));
    EXPECT_NEAR(post.indep + post.fwd + post.bwd, 1.0, 1e-12);
    EXPECT_NEAR(post.indep, NoCopyPosterior(cf, cb, params), 1e-9);
    if (cf > cb) {
      EXPECT_GT(post.fwd, post.bwd);
    }
  }
}

// DirectionPosteriors as it was before the prior moved out of it: the
// two logs of the parameters taken on every call. Kept as the oracle
// the per-round PosteriorPrior form must reproduce bit for bit.
Posteriors PerCallDirectionPosteriors(double c_fwd, double c_bwd,
                                      const DetectionParams& params) {
  double lb = std::log(params.beta());
  double lf = std::log(params.alpha) + c_fwd;
  double lw = std::log(params.alpha) + c_bwd;
  double m = std::max({lb, lf, lw});
  double eb = std::exp(lb - m);
  double ef = std::exp(lf - m);
  double ew = std::exp(lw - m);
  double z = eb + ef + ew;
  Posteriors out;
  out.indep = eb / z;
  out.fwd = ef / z;
  out.bwd = ew / z;
  return out;
}

TEST(PosteriorPrior, MatchesPerCallFormulaBitForBit) {
  const std::vector<double> scores = {
      -5000.0, -700.0, -20.5, -1.0,  -1e-300, 0.0,  0.04,
      1.386,   2.079,  3.89,  20.0,  700.0,   5000.0};
  for (double alpha : {0.1, 0.01, 0.2, 0.249}) {
    DetectionParams params = PaperParams();
    params.alpha = alpha;
    const PosteriorPrior prior(params);
    // Exact ties: a score that puts a direction's log weight on the
    // independence weight, and (paired with itself) c_fwd == c_bwd
    // there, so two or three terms share the maximum.
    std::vector<double> grid = scores;
    grid.push_back(prior.log_beta - prior.log_alpha);
    for (double cf : grid) {
      for (double cb : grid) {
        const Posteriors got = DirectionPosteriors(cf, cb, prior);
        const Posteriors want = PerCallDirectionPosteriors(cf, cb, params);
        const double got_bits[] = {got.indep, got.fwd, got.bwd};
        const double want_bits[] = {want.indep, want.fwd, want.bwd};
        EXPECT_EQ(std::memcmp(got_bits, want_bits, sizeof(got_bits)), 0)
            << "alpha " << alpha << " c_fwd " << cf << " c_bwd " << cb;
      }
    }
  }
}

TEST(ContributionScorers, MatchSharedContributionBitForBit) {
  // The clamp limits of p (1e-6, 1 - 1e-6) and of the accuracies
  // (0.005, 0.995), values beyond them, and interior points.
  const std::vector<double> probs = {0.0,  1e-9, 1e-6, 0.001, 0.01, 0.3,
                                     0.5,  0.77, 0.999, 1.0 - 1e-6, 1.0};
  const std::vector<double> accs = {0.0,  0.001, 0.005, 0.01, 0.2, 0.5,
                                    0.61, 0.9,   0.995, 0.999, 1.0};
  auto same_bits = [](double a, double b) {
    return std::memcmp(&a, &b, sizeof(double)) == 0;
  };
  for (double s : {0.8, 0.5, 0.1, 0.99}) {
    for (double n : {100.0, 10.0, 1.0, 7.5}) {
      DetectionParams params = PaperParams();
      params.s = s;
      params.n = n;
      for (double a1 : accs) {
        for (double a2 : accs) {
          const PairContributionScorer pair(a1, a2, params);
          for (double p : probs) {
            const RowContributionScorer row(p, a1, params);
            const double fwd = SharedContribution(p, a1, a2, params);
            const double bwd = SharedContribution(p, a2, a1, params);
            const RowContributionScorer::Scores got = row.Score(a2);
            EXPECT_TRUE(same_bits(pair.Forward(p), fwd) &&
                        same_bits(pair.Backward(p), bwd) &&
                        same_bits(got.fwd, fwd) && same_bits(got.bwd, bwd))
                << "s " << s << " n " << n << " p " << p << " a1 " << a1
                << " a2 " << a2;
          }
        }
      }
    }
  }
}

TEST(MaxEntryContribution, TableIIIScores) {
  // Table III: AZ.Tempe (P=.02, providers S5=.6, S6=.01) scores 4.59;
  // NJ.Atlantic (P=.01, providers .2/.2/.4) scores 4.12;
  // FL.Miami (P=.03, providers .2/.2) scores 3.83.
  DetectionParams params = PaperParams();
  {
    std::vector<double> accs = {0.6, 0.01};
    EXPECT_NEAR(MaxEntryContribution(accs, 0.02, params), 4.59, 0.01);
  }
  {
    std::vector<double> accs = {0.2, 0.2, 0.4};
    EXPECT_NEAR(MaxEntryContribution(accs, 0.01, params), 4.12, 0.01);
  }
  {
    std::vector<double> accs = {0.2, 0.2};
    EXPECT_NEAR(MaxEntryContribution(accs, 0.03, params), 3.83, 0.01);
  }
}

TEST(MaxEntryContribution, TableIIITrueValueScores) {
  // AZ.Phoenix: P=.95, providers {.99,.99,.2,.2,.4} -> 1.62;
  // NJ.Trenton: P=.97, providers {.99,.99,.25,.2,.99} -> 1.51.
  DetectionParams params = PaperParams();
  {
    // The paper prints 1.62; exact arithmetic at P = .95 gives 1.60
    // (the paper's P column is rounded to two digits).
    std::vector<double> accs = {0.99, 0.99, 0.2, 0.2, 0.4};
    EXPECT_NEAR(MaxEntryContribution(accs, 0.95, params), 1.62, 0.03);
  }
  {
    std::vector<double> accs = {0.99, 0.99, 0.25, 0.2, 0.99};
    EXPECT_NEAR(MaxEntryContribution(accs, 0.97, params), 1.51, 0.01);
  }
}

// Property sweep: Proposition 3.1's case analysis must match the
// brute-force maximizer for random provider accuracy multisets.
struct Prop31Case {
  double alpha;
  double s;
  double n;
};

class Prop31Test : public ::testing::TestWithParam<Prop31Case> {};

TEST_P(Prop31Test, MatchesBruteForce) {
  Prop31Case param = GetParam();
  DetectionParams params;
  params.alpha = param.alpha;
  params.s = param.s;
  params.n = param.n;
  ASSERT_TRUE(params.Validate().ok());

  Rng rng(0xc0ffee ^ static_cast<uint64_t>(param.n));
  for (int trial = 0; trial < 300; ++trial) {
    size_t k = 2 + static_cast<size_t>(rng.NextBelow(6));
    std::vector<double> accs(k);
    for (double& a : accs) a = rng.UniformDouble(0.01, 0.99);
    double p = rng.UniformDouble(0.001, 0.999);
    double fast = MaxEntryContribution(accs, p, params);
    double brute = BruteForceMaxEntryContribution(accs, p, params);
    EXPECT_NEAR(fast, brute, 1e-9)
        << "trial " << trial << " p=" << p << " k=" << k;
  }
}

INSTANTIATE_TEST_SUITE_P(
    ParameterGrid, Prop31Test,
    ::testing::Values(Prop31Case{0.1, 0.8, 50.0},
                      Prop31Case{0.2, 0.8, 50.0},
                      Prop31Case{0.05, 0.5, 10.0},
                      Prop31Case{0.24, 0.95, 100.0},
                      Prop31Case{0.12, 0.3, 5.0},
                      Prop31Case{0.01, 0.99, 1000.0}));

/// The six-candidate maximizer as it read before its terms were hoisted
/// and two-provider values got their own path, kept verbatim as the
/// bit-exact oracle of both MaxEntryContribution overloads.
double ReferenceMaxEntryContribution(const std::vector<double>& accuracies,
                                     double p,
                                     const DetectionParams& params) {
  double a_min = 2.0, a_secmin = 2.0, a_max = -1.0, a_secmax = -1.0;
  for (double a : accuracies) {
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
  p = ClampProbability(p);
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

TEST(MaxEntryContribution, ProviderOverloadMatchesBitForBit) {
  // Sources 0-11 sit at, inside and beyond the accuracy clamp limits
  // (with a tie); the rest are uniform draws. Values take 2 to 6
  // providers, ascending as a Dataset lists them; p runs through its
  // clamp limits too.
  std::vector<double> accuracy = {0.0, 0.001, 0.005, 0.01, 0.2,   0.2,
                                  0.5, 0.61,  0.9,   0.995, 0.999, 1.0};
  Rng rng(0x3a7e);
  while (accuracy.size() < 40) accuracy.push_back(rng.UniformDouble(0, 1));
  const std::vector<double> probs = {0.0,  1e-9, 1e-6, 0.001, 0.01, 0.3,
                                     0.5,  0.77, 0.999, 1.0 - 1e-6, 1.0};
  auto same_bits = [](double a, double b) {
    return std::memcmp(&a, &b, sizeof(double)) == 0;
  };
  for (double s : {0.8, 0.5, 0.99}) {
    for (double n : {100.0, 10.0, 1.0}) {
      DetectionParams params = PaperParams();
      params.s = s;
      params.n = n;
      for (int trial = 0; trial < 200; ++trial) {
        const size_t k = 2 + static_cast<size_t>(rng.NextBelow(5));
        std::vector<SourceId> providers;
        while (providers.size() < k) {
          const auto s_id = static_cast<SourceId>(
              rng.NextBelow(trial < 100 ? 12 : accuracy.size()));
          if (std::find(providers.begin(), providers.end(), s_id) ==
              providers.end()) {
            providers.push_back(s_id);
          }
        }
        std::sort(providers.begin(), providers.end());
        std::vector<double> accs;
        for (SourceId id : providers) accs.push_back(accuracy[id]);
        for (double p : probs) {
          const double got =
              MaxEntryContribution(providers, accuracy, p, params);
          EXPECT_TRUE(
              same_bits(got, MaxEntryContribution(accs, p, params)) &&
              same_bits(got, ReferenceMaxEntryContribution(accs, p, params)))
              << "s " << s << " n " << n << " k " << k << " p " << p;
          EXPECT_NEAR(got, BruteForceMaxEntryContribution(accs, p, params),
                      1e-9)
              << "s " << s << " n " << n << " k " << k << " p " << p;
        }
      }
    }
  }
}

TEST(IndependentSharedProb, MatchesEquation3) {
  DetectionParams params = PaperParams();
  // P(D.v)=.01, A1=.4, A2=.2, n=50:
  // .01*.4*.2 + .99*.6*.8/50 = .0008 + .009504 = .010304.
  EXPECT_NEAR(IndependentSharedProb(0.01, 0.4, 0.2, params), 0.010304,
              1e-6);
}

TEST(CopiedValueProb, MatchesEquation4) {
  // P=.01, A2=.2: .01*.2 + .99*.8 = .794.
  EXPECT_NEAR(CopiedValueProb(0.01, 0.2), 0.794, 1e-9);
}

}  // namespace
}  // namespace copydetect
