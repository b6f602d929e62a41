#ifndef COPYDETECT_API_COPYDETECT_SESSION_H_
#define COPYDETECT_API_COPYDETECT_SESSION_H_

/// \file
/// The public facade of the copydetect engine — the one header
/// application code includes:
///
///   #include "copydetect/session.h"
///
/// A Session owns the whole pipeline: the shared Executor runtime, a
/// detector resolved by name through the DetectorRegistry, and the
/// iterative copy-aware fusion loop. Configure everything with one
/// SessionOptions, then either
///
///   * one-shot:   auto report = session->Run(data);
///   * streaming:  session->Start(data);
///                 while (*session->Step()) inspect(session->report());
///   * online:     options.online_updates = true;
///                 session->Run(data);
///                 session->Update(delta);   // DatasetDelta
///                 session->report();        // refreshed
///
/// The streaming mode exposes the fusion loop round by round for
/// incremental/online scenarios; both modes produce bit-identical
/// results (Session::Run is the streaming loop driven to completion).
/// Update applies a DatasetDelta to the session's snapshot and
/// re-detects/re-fuses incrementally — maintained overlap counts,
/// rebased inverted index, cached-round pair splicing — with output
/// bit-identical to rebuilding the data set and re-running from
/// scratch (tests/session_update_test.cc proves it per detector).
///
/// Everything an application needs downstream of the pipeline —
/// worlds and profiles (datagen), metrics and text tables (eval),
/// CSV/flags (common), dataset stats (model) — is re-exported here so
/// examples and benchmark setup code never include `core/` or
/// `fusion/` headers directly (docs/API.md states the boundary rule;
/// CI enforces it).

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/csv.h"
#include "common/executor.h"
#include "common/flags.h"
#include "common/stringutil.h"
#include "common/timer.h"
#include "core/copy_graph.h"
#include "core/detector_registry.h"
#include "core/sampling.h"
#include "datagen/generator.h"
#include "datagen/motivating_example.h"
#include "datagen/scenarios.h"
#include "eval/experiment.h"
#include "eval/metrics.h"
#include "eval/quality.h"
#include "eval/table.h"
#include "fusion/truth_finder.h"
#include "model/dataset_delta.h"
#include "model/shard_plan.h"
#include "model/stats.h"

namespace copydetect {

class SessionUpdateState;

namespace snapshot {
struct SessionState;
}  // namespace snapshot

/// One configuration for the whole pipeline: the Bayesian model
/// parameters (DetectionParams), the iterative-loop controls
/// (FusionOptions), the executor width, the detector by registry
/// name, and optional detection sampling. Validate() checks the whole
/// struct at once and reports *every* invalid field in one message.
struct SessionOptions {
  /// Registry name of the detection algorithm (see ListDetectors()):
  /// "pairwise", "index", "bound", "boundplus", "hybrid",
  /// "incremental", "fagin-input", "parallel-index". Ignored when
  /// use_copy_detection is false.
  std::string detector = "hybrid";

  // --- Bayesian copy-detection model (§II), DetectionParams. ---
  double alpha = 0.1;  ///< a-priori copying probability, in (0, 0.25)
  double s = 0.8;      ///< copy selectivity, in (0, 1)
  double n = 50.0;     ///< false values per item, >= 1
  size_t hybrid_threshold = 16;  ///< HYBRID's INDEX→BOUND+ switch
  double rho_accuracy = 0.2;     ///< INCREMENTAL re-detection trigger
  double rho_value = 1.0;        ///< INCREMENTAL "big change" bound

  // --- Iterative fusion loop (§II), FusionOptions. ---
  int max_rounds = 12;
  double epsilon = 1e-3;          ///< convergence threshold, > 0
  double initial_accuracy = 0.8;  ///< round-0 accuracies, in (0, 1)
  bool use_copy_detection = true; ///< false = accuracy-only baseline
  double damping = 0.25;          ///< value-prob smoothing, in [0, 1)

  // --- Runtime. ---
  /// Executor width: 1 = serial (never spawns a thread), 0 = all
  /// hardware threads, N = N workers. Results are bit-identical at
  /// every width; this is purely a speed knob.
  size_t threads = 1;

  // --- Optional detection sampling (§VI-E). ---
  /// Item/cell fraction in (0, 1]; 0 (default) disables sampling.
  double sample_rate = 0.0;
  SamplingMethod sample_method = SamplingMethod::kScaleSample;
  size_t sample_min_items_per_source = 4;  ///< SCALESAMPLE's floor
  uint64_t sample_seed = 42;

  // --- Online updates (Session::Update). ---
  /// Enables Session::Update: the session keeps its own evolving
  /// snapshot (Run copies the input once) and records per-round state
  /// during every run so the next Update can reuse it. Memory cost:
  /// one Dataset copy plus ~rounds × (slots + sources + tracked
  /// pairs); off by default.
  bool online_updates = false;
  /// Update skips the reuse machinery and just re-runs in full when
  /// the delta touches more than this fraction of items — a large
  /// delta invalidates nearly everything, so maintaining state costs
  /// more than it saves. Either path yields bit-identical reports.
  double update_rebuild_fraction = 0.5;

  // --- Multi-process shard plan (Session BSP API below). ---
  /// This process's slot in a multi-process sharded run. The default
  /// {1, 0} is the whole-pair-set plan; with num_shards > 1 the
  /// session detects only the pairs the plan owns, so ordinary
  /// Run/Start are refused — drive the run through InitShardedRun /
  /// RunShardRound / MergeShardRound instead. Incompatible with
  /// online_updates and detection sampling. Not persisted by Save
  /// (shard placement is per-process runtime configuration, not
  /// session state).
  ShardPlan plan;

  /// Validates every field, aggregating all violations into a single
  /// InvalidArgument message ("invalid SessionOptions: <a>; <b>; ...")
  /// instead of stopping at the first. Includes the registry's
  /// detector list when `detector` does not resolve.
  Status Validate() const;

  /// The model-parameter view of these options (executor unset — the
  /// Session wires its own).
  DetectionParams ToDetectionParams() const;
  /// The fusion-loop view of these options (params.executor unset).
  FusionOptions ToFusionOptions() const;
};

/// Per-round pass statistics of the INCREMENTAL detector (Table
/// VIII), surfaced through the facade so callers never downcast to
/// core detector types. Empty unless the session runs "incremental".
struct IncrementalRoundInfo {
  int round = 0;
  uint64_t pass1 = 0;  ///< pairs terminated in pass 1
  uint64_t pass2 = 0;
  uint64_t pass3 = 0;
  uint64_t exact = 0;  ///< pairs handled outside the passes
  double seconds = 0.0;
  bool from_scratch = false;  ///< full re-detection round
};

/// What one Session::Update did — the incremental-vs-fallback
/// decision, what the delta touched, and how much prior state was
/// reusable. Timings separate the snapshot/index maintenance
/// (apply_seconds) from the re-detection/re-fusion (run_seconds).
struct UpdateStats {
  /// True when the reuse machinery ran (small delta); false when the
  /// update fell back to a plain full re-run.
  bool incremental = false;
  /// True when the overlap counts were patched per touched item
  /// instead of recounted from scratch.
  bool overlaps_maintained = false;
  size_t touched_sources = 0;
  size_t touched_items = 0;
  size_t added_observations = 0;
  size_t overwritten_observations = 0;
  size_t retracted_observations = 0;
  /// Pair posteriors spliced from the previous run instead of being
  /// recomputed (pair-local detectors only; 0 for the others).
  uint64_t reused_pairs = 0;
  double apply_seconds = 0.0;  ///< Dataset::Apply + state maintenance
  double run_seconds = 0.0;    ///< incremental re-detection + re-fusion
};

/// Everything one run produces: the fusion outcome (truth, value
/// probabilities, accuracies, last-round copies, per-round trace and
/// timing), the detector's computation counters, and the analyzed
/// copy graph.
struct Report {
  std::string detector;  ///< detector name ("" when accuracy-only)
  size_t threads = 1;    ///< resolved executor width
  FusionResult fusion;
  Counters counters;
  CopyGraph graph;
  /// INCREMENTAL pass statistics; empty for other detectors.
  std::vector<IncrementalRoundInfo> incremental_rounds;

  // Shorthands for the most common lookups.
  const std::vector<SlotId>& truth() const { return fusion.truth; }
  const std::vector<double>& accuracies() const {
    return fusion.accuracies;
  }
  const CopyResult& copies() const { return fusion.copies; }
  int rounds() const { return fusion.rounds; }
  bool converged() const { return fusion.converged; }

  /// Stable JSON rendering of the report (the serving wire format and
  /// the `query` verb's payload). `data` supplies the source/item
  /// names the report's dense arrays are indexed by — pass the data
  /// set the report was produced from (Session::current_data()).
  ///
  /// **Determinism contract:** the bytes are a pure function of the
  /// report's semantic content — copies sorted by pair, each number
  /// rendered as printf's `%.Pg` at the smallest P that reads back as
  /// the same double (AppendJsonDouble: `-0` keeps its sign, `1e-05`,
  /// `1e+16`; non-finite renders `null`), no timing fields and no
  /// per-run detector counters (Load resets those to zero) — so two
  /// bit-identical reports render byte-identically across processes
  /// and restarts. The serving recovery smoke byte-compares exactly
  /// this string across a daemon kill/restart.
  ///
  /// Compact JSON, members in this order: detector, threads, rounds,
  /// converged, num_sources, num_items, truth [{item, value,
  /// probability}] (value and probability null for an item with no
  /// truth), accuracies [{source, accuracy}], copies [{a, b, p_indep,
  /// p_a_copies_b, p_b_copies_a}], clusters [{original (null when none
  /// was elected), members, edges [{a, b, kind, p_a_copies_b,
  /// p_b_copies_a}]}]. Written straight into one pre-sized string.
  std::string ToJson(const Dataset& data) const;
};

/// How Session::Load materializes the snapshot's arrays.
enum class LoadMode {
  /// Decode everything into owned heap arrays (snapshot::Read) — the
  /// default, and the only mode version-1 files support.
  kOwned,
  /// Map the file read-only and serve the Dataset arrays and the
  /// dense overlap triangle as zero-copy views into it
  /// (snapshot::ReadMapped). Peak memory stays at the resident mapped
  /// pages instead of file + decoded copy; a later Update
  /// copy-on-writes out of the mapping. Version-1 files and
  /// big-endian hosts transparently fall back to kOwned.
  kMapped,
};

/// Everything Session::Load can be told about *how* to materialize a
/// snapshot, in one growable struct (new knobs land here instead of
/// spawning more overloads).
struct LoadOptions {
  LoadOptions() {}
  /// Implicit from LoadMode so call sites can pass the enum directly.
  LoadOptions(LoadMode m) : mode(m) {}  // NOLINT(runtime/explicit)

  LoadMode mode = LoadMode::kOwned;
};

/// The facade over the whole pipeline. Create() validates the options
/// as a whole, builds the shared Executor and resolves the detector
/// through the registry; Run()/Start()+Step() then drive the fusion
/// loop. A Session is reusable: each Run/Start resets detector state,
/// so consecutive runs are independent. Movable, not copyable.
class Session {
 public:
  /// Builds a session or returns the aggregated validation error.
  static StatusOr<Session> Create(const SessionOptions& options);

  Session(Session&&) noexcept;
  Session& operator=(Session&&) noexcept;
  ~Session();

  const SessionOptions& options() const { return options_; }
  /// Resolved canonical detector name ("" when accuracy-only).
  const std::string& detector_name() const { return detector_name_; }
  /// Resolved executor width (options().threads with 0 expanded).
  size_t threads() const;

  /// One-shot: runs the fusion loop to completion on `data` and
  /// returns the full report. Equivalent to Start + Step-until-done +
  /// report(), and bit-identical to driving IterativeFusion directly
  /// with ToFusionOptions() (the equivalence is enforced by
  /// tests/session_test.cc). Resets any streaming state.
  StatusOr<Report> Run(const Dataset& data);

  // --- Streaming-round API. ---
  /// Begins a streaming run. `data` must outlive the run.
  Status Start(const Dataset& data);
  /// Executes the next fusion round. Returns true when a round was
  /// executed, false when the run had already finished (converged or
  /// reached max_rounds).
  StatusOr<bool> Step();
  /// True between Start and the finishing Step.
  bool running() const;
  /// Rounds executed in the current run.
  int round() const;
  /// Snapshot of the run so far: after the finishing Step this is the
  /// final report; mid-run, truth and the copy graph are computed
  /// from the current round's state. Invalidated by the next Step,
  /// Start, Run or Update.
  const Report& report();

  // --- Online updates (requires SessionOptions::online_updates). ---
  /// Applies `delta` to the session's snapshot and re-runs detection +
  /// fusion incrementally: the next snapshot comes from
  /// Dataset::Apply, overlap counts are patched per touched item, the
  /// round-1 inverted index is rebased, and pair-local detectors
  /// splice unchanged pairs' posteriors from the recorded previous
  /// run. The refreshed report() is bit-identical to rebuilding the
  /// merged data set and Run()ning it from scratch — reuse only ever
  /// skips provably unchanged work (large deltas skip the machinery
  /// entirely, see SessionOptions::update_rebuild_fraction).
  /// Requires a completed Run/Start on this session first.
  Status Update(const DatasetDelta& delta);

  /// What the most recent Update did; default-constructed before the
  /// first Update.
  const UpdateStats& last_update_stats() const { return update_stats_; }

  // --- Snapshot persistence (snapshot/snapshot_io.h; format spec in
  // docs/FORMATS.md). ---
  /// Serializes the session's current state — options, the data
  /// snapshot, the maintained overlap counts, the fusion result and
  /// the online-update round tape — to a versioned, checksummed
  /// binary file, so a later process can Load() it and resume exactly
  /// where this one stopped. Written atomically (temp + rename).
  ///
  /// Requires a finished run whose state is still live: a Run with
  /// online_updates on, or a streaming run driven to its final Step
  /// (without online_updates, Run hands its report to the caller and
  /// keeps nothing to save). Refused mid-run.
  Status Save(const std::string& path);

  /// Reconstructs a session from a Save()d file: options are restored
  /// and re-validated through Create, the data snapshot and fusion
  /// result are installed (report() works immediately, without
  /// re-running), and with online_updates the maintained overlaps and
  /// the previous run's round tape are rebound to the loaded snapshot
  /// — a subsequent Update/Start/Step behaves bit-identically to the
  /// session that never left memory (tests/session_snapshot_test.cc).
  /// Detector counters are per-run and start at zero.
  ///
  /// Fails closed with a descriptive Status on truncation, foreign
  /// magic, unknown future format versions, checksum mismatches, or
  /// structurally inconsistent payloads — never undefined behavior.
  ///
  /// `options` selects how the arrays materialize (LoadOptions::mode:
  /// owned heap decode vs zero-copy mapped views — the session's
  /// report() is byte-identical either way, only the memory footprint
  /// differs) and is where future load knobs land. LoadOptions
  /// converts implicitly from LoadMode, so `Load(path, LoadMode::
  /// kMapped)` keeps working unchanged.
  static StatusOr<Session> Load(const std::string& path,
                                const LoadOptions& options);

  // --- Multi-process sharded runs (BSP; docs/ARCHITECTURE.md). ---
  //
  // One fusion round per superstep: every shard process detects its
  // plan-owned pairs against the shared state file, then one merge
  // process folds the shard files together and advances the fusion
  // loop a single round. Driven to completion this reproduces the
  // single-process Run bit for bit:
  //
  //   coordinator:  session.InitShardedRun(data, "state.cdsnap");
  //   per round:    shard i:  session_i.RunShardRound(data,
  //                     "state.cdsnap", "shard_i.cdsnap");
  //                 merge:    done = session.MergeShardRound(data,
  //                     {"shard_0.cdsnap", ...}, "state.cdsnap");
  //   until *done;  session.report() then serves the final result.
  //
  // Every process must load the identical data set (the state and
  // shard files validate dimensions and pair ids against it, not its
  // provenance). Requires a round-stateless detector (INCREMENTAL is
  // refused — its cross-round state cannot survive process
  // boundaries) and plain options: no online_updates, no sampling.

  /// Writes the round-0 coordinator state for a run of
  /// options().plan.num_shards shards to `state_path`: the initial
  /// fusion estimates (exactly what Start computes) and zeroed
  /// counters.
  Status InitShardedRun(const Dataset& data,
                        const std::string& state_path);

  /// Executes the next detection round for this process's shard
  /// (options().plan.shard_id of options().plan.num_shards, which
  /// must match the state file's width) and writes the partial result
  /// to `shard_path`. The session's detector is Reset() first, so
  /// repeated calls behave like the fresh process per superstep the
  /// protocol assumes.
  Status RunShardRound(const Dataset& data,
                       const std::string& state_path,
                       const std::string& shard_path);

  /// Folds one round's shard files (all of them, any order) into the
  /// state file and advances the fusion loop one round. Returns true
  /// when the run just finished (converged or max_rounds) — the
  /// session then holds the final report(), bit-identical to a
  /// single-process Run on the same data.
  StatusOr<bool> MergeShardRound(
      const Dataset& data, const std::vector<std::string>& shard_paths,
      const std::string& state_path);

  /// The session's current snapshot: the owned, delta-evolved data
  /// set when online_updates is on and a run has started; null before
  /// the first run (or, without online_updates, the caller's data of
  /// the current run).
  const Dataset* current_data() const {
    return snapshot_ != nullptr ? snapshot_.get() : data_;
  }

 private:
  Session(SessionOptions options, std::string detector_name,
          std::unique_ptr<Executor> executor,
          std::unique_ptr<CopyDetector> detector);

  /// Start on a specific data object (bypasses the online-updates
  /// snapshot copy that the public Start performs).
  Status StartOn(const Dataset& data);
  /// Drives loop_ to completion, moves the result into report_ and
  /// refreshes it. Leaves loop_ null.
  Status FinishLoop();
  void RefreshReport();
  /// Installs a snapshot::Read result into this freshly Created
  /// session — the back half of Load().
  Status InstallLoaded(snapshot::SessionState state);
  /// Shared eligibility gate of the three BSP entry points.
  Status CheckBspEligible() const;

  SessionOptions options_;
  std::string detector_name_;
  std::unique_ptr<Executor> executor_;
  std::unique_ptr<CopyDetector> detector_;  // null when accuracy-only
  std::unique_ptr<FusionLoop> loop_;        // null until Start
  const Dataset* data_ = nullptr;           // current run's data set
  Report report_;
  /// Counters accumulated across a finished BSP run's merged rounds.
  /// The session's own detector never ran that work, so RefreshReport
  /// serves these instead of detector_->counters() while set; any
  /// fresh Start clears them.
  std::optional<Counters> merged_counters_;

  // Online-update state (null/empty unless options_.online_updates).
  std::unique_ptr<Dataset> snapshot_;       // owned evolving snapshot
  std::unique_ptr<Dataset> prev_snapshot_;  // kept alive during replay
  std::unique_ptr<SessionUpdateState> update_;  // tape + overlaps
  UpdateStats update_stats_;
};

}  // namespace copydetect

#endif  // COPYDETECT_API_COPYDETECT_SESSION_H_
