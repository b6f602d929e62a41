#ifndef COPYDETECT_EVAL_QUALITY_H_
#define COPYDETECT_EVAL_QUALITY_H_

// Quality-gate scoring over the adversarial scenario library
// (datagen/scenarios.h): one ScenarioResult per finished (scenario,
// detector) run, scoring the detected copy graph against the planted
// one and the fused truth against the gold standard. The caller runs
// the scenario (through copydetect/session.h) and names the run.
// bench/quality_sweep serializes these as QUALITY.json; the
// quality-gate CI job compares that against the committed baseline
// (tools/bench_compare.py --quality), so speed work cannot silently
// trade away recall.

#include <string>

#include "datagen/scenarios.h"
#include "eval/metrics.h"
#include "fusion/truth_finder.h"

namespace copydetect {

/// Quality of one fusion run on one scenario.
struct ScenarioResult {
  std::string scenario;
  /// Copy-graph quality: precision against the clique closure of the
  /// planted pairs (co-copiers are indistinguishable from copiers —
  /// see CopyClosure), recall against the direct planted edges, f1 of
  /// those two.
  PrfScores pairs;
  /// Gold-standard accuracy of the fused truth.
  double fusion_accuracy = 0.0;
  int rounds = 0;
  bool converged = false;
  double seconds = 0.0;  ///< fusion wall time (FusionResult::total_seconds)
};

/// Scores a detected copy graph against planted pairs the way the
/// scenario library means it: precision vs the clique closure, recall
/// vs the direct edges, f1 harmonic in those two.
PrfScores ScoreCopyPairs(
    const CopyResult& copies,
    const std::vector<std::pair<SourceId, SourceId>>& true_pairs);

/// Scores a finished fusion run on the scenario's final world.
ScenarioResult ScoreScenario(const Scenario& scenario,
                             const FusionResult& fusion);

}  // namespace copydetect

#endif  // COPYDETECT_EVAL_QUALITY_H_
