#include "eval/quality.h"

#include <utility>

namespace copydetect {

PrfScores ScoreCopyPairs(
    const CopyResult& copies,
    const std::vector<std::pair<SourceId, SourceId>>& true_pairs) {
  const PrfScores vs_closure =
      ComparePairsToTruth(copies, CopyClosure(true_pairs));
  const PrfScores vs_direct = ComparePairsToTruth(copies, true_pairs);
  PrfScores scores;
  scores.precision = vs_closure.precision;
  scores.recall = vs_direct.recall;
  const double denom = scores.precision + scores.recall;
  scores.f1 = denom == 0.0
                  ? 0.0
                  : 2.0 * scores.precision * scores.recall / denom;
  scores.output_pairs = vs_direct.output_pairs;
  scores.reference_pairs = vs_direct.reference_pairs;
  return scores;
}

ScenarioResult ScoreScenario(const Scenario& scenario,
                             const FusionResult& fusion) {
  ScenarioResult result;
  result.scenario = scenario.name;
  result.pairs = ScoreCopyPairs(fusion.copies, scenario.world.copy_pairs);
  result.fusion_accuracy =
      scenario.world.gold.Accuracy(scenario.world.data, fusion.truth);
  result.rounds = fusion.rounds;
  result.converged = fusion.converged;
  result.seconds = fusion.total_seconds;
  return result;
}

}  // namespace copydetect
