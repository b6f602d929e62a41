#ifndef COPYDETECT_FUSION_TRUTH_FINDER_H_
#define COPYDETECT_FUSION_TRUTH_FINDER_H_

#include <vector>

#include "common/status.h"
#include "core/detector.h"
#include "fusion/value_probs.h"
#include "model/dataset.h"

namespace copydetect {

/// Options of the iterative truth-finding loop (§II's "iterative
/// computation": copy detection → value truthfulness → source
/// accuracy, until convergence).
struct FusionOptions {
  /// Model parameters. `params.executor` doubles as the run's shared
  /// execution backend: detectors and the per-item/per-source fusion
  /// aggregation all parallelize over it (bit-identically), so setting
  /// it here threads one persistent pool through the whole loop.
  DetectionParams params;
  int max_rounds = 12;
  /// Converged when the largest per-source accuracy change in a round
  /// falls below this.
  double epsilon = 1e-3;
  double initial_accuracy = 0.8;
  /// When false, the loop never calls the detector (the
  /// accuracy-only baseline the paper contrasts against).
  bool use_copy_detection = true;
  /// Exponential smoothing of the value-probability update:
  /// p = (1-damping)·p_new + damping·p_previous. Without it the
  /// softmax saturates to {0,1} after one or two rounds on clean data;
  /// the damped dynamics match the paper's observed gradual
  /// convergence (Table II: accuracies move .75→.94→.96→.98→.99) and
  /// give the incremental detector its small-changes regime.
  double damping = 0.25;
};

/// Per-round measurements for the time/computation tables.
struct RoundTrace {
  int round = 0;
  double detect_seconds = 0.0;
  /// Process CPU seconds consumed by the detection call — ~equal to
  /// detect_seconds when serial, ~threads× larger when parallel.
  double detect_cpu_seconds = 0.0;
  double fusion_seconds = 0.0;
  uint64_t computations = 0;  ///< detector counter total after round
  size_t copying_pairs = 0;
  double max_accuracy_change = 0.0;
};

/// Everything the loop produces.
struct FusionResult {
  std::vector<double> value_probs;  ///< per slot
  std::vector<double> accuracies;   ///< per source
  std::vector<SlotId> truth;        ///< per item argmax slot
  CopyResult copies;                ///< last round's detection
  int rounds = 0;
  bool converged = false;
  std::vector<RoundTrace> trace;
  double total_seconds = 0.0;
  double detect_seconds = 0.0;
  double detect_cpu_seconds = 0.0;  ///< CPU-time twin of the above
};

/// Majority vote per item (ties broken to the first slot) — the naive
/// baseline.
std::vector<SlotId> VoteFusion(const Dataset& data);

/// The iterative loop decomposed into resumable rounds — the engine
/// behind both IterativeFusion::Run (one-shot) and the streaming
/// Session API (copydetect/session.h). Holds the loop's cross-round
/// state so callers can interleave work between rounds:
///
///   OverlapCache overlaps;
///   FusionLoop loop(options);
///   CD_RETURN_IF_ERROR(loop.Start(data, detector, &overlaps));
///   while (*loop.Step()) { /* inspect loop.result() per round */ }
///   FusionResult result = std::move(loop).Take();
///
/// `data`, `detector` and `overlaps` must outlive the loop, which puts
/// `overlaps` into every round's DetectionInput; `detector` and
/// `overlaps` may be null only when options.use_copy_detection is
/// false. Because Run is implemented on top of this class, driving it
/// to completion is bit-identical to the one-shot path by
/// construction.
class FusionLoop {
 public:
  explicit FusionLoop(const FusionOptions& options)
      : options_(options) {}

  /// Validates options and initializes round-0 state (initial value
  /// probabilities and accuracies). Resets any previous run.
  Status Start(const Dataset& data, CopyDetector* detector,
               OverlapCache* overlaps);

  /// Executes the next round (detection + fusion update + convergence
  /// check). Returns true when a round was executed, false when the
  /// loop had already finished (converged or hit max_rounds).
  StatusOr<bool> Step();

  /// True once the loop has converged or exhausted max_rounds (also
  /// before Start). The final transition finalizes result().truth.
  bool done() const { return done_; }

  /// Rounds executed so far.
  int round() const { return result_.rounds; }

  /// The loop state so far. `truth` is finalized on the last Step;
  /// mid-run callers wanting a truth snapshot can apply ChooseTruth
  /// (fusion/value_probs.h) to value_probs.
  const FusionResult& result() const { return result_; }

  /// Moves the finished result out.
  FusionResult Take() && { return std::move(result_); }

 private:
  FusionOptions options_;
  const Dataset* data_ = nullptr;
  CopyDetector* detector_ = nullptr;
  OverlapCache* overlaps_ = nullptr;
  FusionResult result_;
  bool done_ = true;  // until Start
};

/// The iterative fusion loop. `detector` may be null when
/// options.use_copy_detection is false; otherwise it is invoked once
/// per round with the current estimates (stateful detectors like
/// INCREMENTAL rely on the monotonically increasing round number).
/// Each Run owns the overlap counts of its data set.
class IterativeFusion {
 public:
  explicit IterativeFusion(const FusionOptions& options)
      : options_(options) {}

  StatusOr<FusionResult> Run(const Dataset& data,
                             CopyDetector* detector) const;

 private:
  FusionOptions options_;
};

}  // namespace copydetect

#endif  // COPYDETECT_FUSION_TRUTH_FINDER_H_
