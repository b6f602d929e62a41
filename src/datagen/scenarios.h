#ifndef COPYDETECT_DATAGEN_SCENARIOS_H_
#define COPYDETECT_DATAGEN_SCENARIOS_H_

// Adversarial scenario library.
//
// Where profiles.h describes *static* worlds shaped like the paper's
// crawls, a scenario is a world plus a history: an initial snapshot
// and an ordered DatasetDelta stream whose application reproduces the
// final data set bit-identically (the canonical-layout invariant of
// Dataset::Apply). Each scenario plants an adversarial copying
// behavior the paper's detection model is supposed to catch and ships
// the machine-checkable gold standard to score it against:
//
//  * adaptive-switch — star-group copiers that drop their victim
//    mid-stream and re-sync to a different one (stresses
//    Session::Update's incremental path and the direction posteriors);
//  * noisy-copier   — partial copiers that take ~half the victim's
//    items and garble ~15% of what they take (weakest verbatim-
//    sharing evidence in the library);
//  * collusion-ring — cliques of sources converging on a shared claim
//    pool, built entirely by the delta stream (stresses the copy-graph
//    analysis: every intra-ring pair shares provenance);
//  * churn-feed     — a stable planted copy graph while independent
//    sources retire (full retraction) and fresh ones appear every
//    round.
//
// The quality harness (eval/quality.h) scores detectors on the final
// world; the update tests replay the stream through Session::Update
// and assert bit-identity with a cold rebuild.

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "datagen/generator.h"
#include "model/dataset.h"
#include "model/dataset_delta.h"

namespace copydetect {

/// One adversarial scenario: the end-state world plus the stream that
/// produced it.
struct Scenario {
  std::string name;

  /// The pre-stream snapshot.
  Dataset initial;

  /// Ordered update stream. Applying every delta to `initial` in
  /// order (Dataset::Apply) reproduces `world.data` bit-identically.
  /// Empty for purely static scenarios (noisy-copier).
  std::vector<DatasetDelta> deltas;

  /// The scenario's end state: quality is scored against this world.
  /// `world.copy_pairs` is the true copy graph *after* the stream
  /// (for collusion-ring: every unordered intra-ring pair);
  /// `world.gold` / `world.full_truth` are the planted truth, which
  /// the stream never changes.
  World world;
};

/// Names of all library scenarios, sorted: "adaptive-switch",
/// "churn-feed", "collusion-ring", "noisy-copier".
std::vector<std::string> ScenarioNames();

/// Builds a scenario by name. Deterministic in (name, scale, seed).
/// NotFound for unknown names.
StatusOr<Scenario> MakeScenario(const std::string& name, double scale,
                                uint64_t seed);

}  // namespace copydetect

#endif  // COPYDETECT_DATAGEN_SCENARIOS_H_
