#ifndef COPYDETECT_DATAGEN_GENERATOR_H_
#define COPYDETECT_DATAGEN_GENERATOR_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "common/status.h"
#include "datagen/profiles.h"
#include "model/dataset.h"
#include "model/gold_standard.h"
#include "model/types.h"

namespace copydetect {

/// A generated world: the observable data set plus the hidden state the
/// real crawls lacked — planted truth, realized source accuracies and
/// the true copy graph. Substitutes for the paper's proprietary crawls
/// (see docs/DESIGN.md §1).
struct World {
  Dataset data;
  /// Planted truth, possibly sub-sampled per WorldConfig::gold_size.
  GoldStandard gold;
  /// Full planted truth (always complete, used by integration tests).
  GoldStandard full_truth;
  /// Configured accuracy of each source's *independent* decisions.
  std::vector<double> true_accuracy;
  /// Ordered (copier, original) pairs that actually copy.
  std::vector<std::pair<SourceId, SourceId>> copy_pairs;
  /// The generator's per-item false-value pool size — the right value
  /// for DetectionParams::n when detecting on this world (the paper
  /// treats n as a per-domain input, §II footnote 4).
  double suggested_n = 50.0;
};

/// Generates a world from a config and seed. Deterministic: the same
/// (config, seed) always yields the same world.
///
/// Generation model (faithful to the Bayesian model of §II):
///  * every item has one true value and `false_pool` distinct false
///    values;
///  * an independent source covers a mixture-drawn fraction of items
///    (uniform subset) and provides the true value with probability
///    A(S), otherwise a uniformly drawn false value;
///  * a copier copies each item of its original with probability
///    `selectivity` (taking the value verbatim, true or false — or,
///    with probability `noise`, a freshly drawn perturbed value) and
///    provides independent values on its own extra items.
StatusOr<World> GenerateWorld(const WorldConfig& config, uint64_t seed);

/// The generator's value-naming convention, exported so the scenario
/// library (datagen/scenarios.cc) can extend a generated world with
/// DatasetDelta streams that speak the same value vocabulary: item
/// index `d` has true value TrueValueName(d) and false pool
/// FalseValueName(d, 0..false_pool-1).
std::string TrueValueName(size_t item_index);
std::string FalseValueName(size_t item_index, uint64_t code);

}  // namespace copydetect

#endif  // COPYDETECT_DATAGEN_GENERATOR_H_
