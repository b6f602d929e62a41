#include "copydetect/session.h"

#include <algorithm>
#include <memory>
#include <utility>

#include "common/executor.h"
#include "common/json.h"
#include "common/timer.h"
#include "core/incremental.h"
#include "core/inverted_index.h"
#include "core/pairwise.h"
#include "fusion/value_probs.h"
#include "simjoin/overlap.h"
#include "snapshot/snapshot_io.h"

namespace copydetect {

namespace {

/// Appends "label must ..." style problems; shared formatting for the
/// aggregated validation message.
void Require(bool ok, std::vector<std::string>* problems,
             std::string problem) {
  if (!ok) problems->push_back(std::move(problem));
}

}  // namespace

/// The session-side machinery of Session::Update. One object lives
/// for the session's lifetime and plays two roles through the
/// FusionLoop observer interface:
///
///  * recorder — during every run it tapes each round's entering
///    state (value probs, accuracies), the round's copy result, and
///    the round-1 inverted index (via DetectionInput::index_sink);
///  * replayer — during an update run it compares the current round's
///    state against the previous run's tape and hands the detector
///    UpdateHints naming the provably unchanged parts: clean sources
///    for pair splicing, and the previous round-1 index for
///    InvertedIndex::Rebase.
///
/// It also owns the session's maintained overlap counts and publishes
/// them through SharedOverlaps so every detector's private
/// OverlapCache borrows them instead of recounting.
class SessionUpdateState : public RoundObserver {
 public:
  explicit SessionUpdateState(bool maintain_overlaps)
      : maintain_overlaps_(maintain_overlaps) {}

  ~SessionUpdateState() override {
    if (overlaps_generation_ != 0) {
      SharedOverlaps::Withdraw(overlaps_generation_);
    }
  }

  // --- Overlap maintenance. ---

  /// Publishes counts for `data`, computing them cold when the
  /// maintained ones belong to another generation.
  void EnsureOverlaps(const Dataset& data) {
    if (!maintain_overlaps_) return;
    if (overlaps_ != nullptr &&
        overlaps_generation_ == data.generation()) {
      return;
    }
    SetOverlaps(std::make_shared<const OverlapCounts>(
                    ComputeOverlaps(data)),
                data.generation());
  }

  /// Steps the maintained counts across a delta. Returns true when
  /// they were patched per touched item, false when they had to be
  /// recounted (either way the new snapshot's counts end up
  /// published).
  bool AdvanceOverlaps(const Dataset& old_data, const Dataset& new_data,
                       const DeltaSummary& summary,
                       bool allow_incremental) {
    if (!maintain_overlaps_) return false;
    bool incremental = false;
    std::shared_ptr<const OverlapCounts> next;
    if (allow_incremental && overlaps_ != nullptr &&
        overlaps_generation_ == old_data.generation()) {
      auto patched = std::make_shared<OverlapCounts>(*overlaps_);
      if (UpdateOverlaps(patched.get(), old_data, new_data,
                         summary.touched_items)) {
        next = std::move(patched);
        incremental = true;
      }
    }
    if (next == nullptr) {
      next = std::make_shared<const OverlapCounts>(
          ComputeOverlaps(new_data));
    }
    SetOverlaps(std::move(next), new_data.generation());
    return incremental;
  }

  // --- Run lifecycle. ---

  /// Arms the next run to replay against the previous tape through
  /// `summary` (the Dataset::Apply result that led to `new_data`).
  void ArmReplay(DeltaSummary summary, const Dataset& new_data) {
    summary_ = std::move(summary);
    // Structurally clean = untouched by the delta and providing no
    // touched item: the source's rows, and every probability its
    // slots can see in round 1, are unchanged. Rounds >= 2 refine
    // this with bitwise state comparison per round.
    structurally_clean_.assign(new_data.num_sources(), 1);
    for (SourceId s : summary_.touched_sources) {
      structurally_clean_[s] = 0;
    }
    for (ItemId d : summary_.touched_items) {
      for (SourceId s : new_data.item_providers(d)) {
        structurally_clean_[s] = 0;
      }
    }
    replay_armed_ = true;
  }

  void DisarmReplay() { replay_armed_ = false; }

  void BeginRun(const Dataset& data, const CopyDetector* detector) {
    data_ = &data;
    pairwise_ = dynamic_cast<const PairwiseDetector*>(detector);
    recording_.clear();
    // Taping the per-round CopyResult costs O(tracked pairs) per
    // round; only pair-local detectors can splice from it, so only
    // record it for them.
    recording_copies_ = pairwise_ != nullptr;
    reused_pairs_ = 0;
    replaying_ = replay_armed_;
    replay_armed_ = false;
    run_open_ = true;
    EnsureOverlaps(data);
  }

  /// Closes the run: on success the recording becomes the tape the
  /// next update replays against; on failure both are dropped (a
  /// partial tape must never be replayed).
  void EndRun(bool success) {
    if (!run_open_) return;
    run_open_ = false;
    replaying_ = false;
    if (success) {
      previous_ = std::move(recording_);
      previous_has_copies_ = recording_copies_;
    } else {
      previous_.clear();
      previous_has_copies_ = false;
    }
    recording_.clear();
  }

  uint64_t reused_pairs() const { return reused_pairs_; }

  // --- Snapshot persistence (Session::Save/Load). ---

  /// True when the maintained counts are live for `generation`.
  bool HasOverlapsFor(uint64_t generation) const {
    return overlaps_ != nullptr && overlaps_generation_ == generation;
  }
  const OverlapCounts& overlaps() const { return *overlaps_; }

  /// Adopts loaded counts as the maintained+published ones.
  void InstallOverlaps(std::shared_ptr<const OverlapCounts> counts,
                       uint64_t generation) {
    SetOverlaps(std::move(counts), generation);
  }

  bool HasTape() const { return !previous_.empty(); }

  /// Copies the previous run's tape into persistable form (the
  /// generation fields stay with the caller, which knows the
  /// snapshot's).
  void ExportTape(snapshot::SessionState* out) const {
    out->has_tape = true;
    out->tape_has_copies = previous_has_copies_;
    out->tape.reserve(previous_.size());
    for (const RoundRecord& rec : previous_) {
      snapshot::TapeRound round;
      round.pre_probs = rec.pre_probs;
      round.pre_accs = rec.pre_accs;
      round.copies = rec.copies;
      round.has_index = rec.has_index;
      if (rec.has_index) {
        round.index_entries.reserve(rec.index.num_entries());
        for (size_t i = 0; i < rec.index.num_entries(); ++i) {
          round.index_entries.push_back(rec.index.entry(i));
        }
        round.index_tail_begin = rec.index.tail_begin();
        round.index_ordering = rec.index.ordering();
      }
      out->tape.push_back(std::move(round));
    }
  }

  /// Adopts a loaded tape as the previous run's, rebinding each taped
  /// round-1 index to `data` (the loaded snapshot).
  Status InstallTape(std::vector<snapshot::TapeRound> tape,
                     bool has_copies, const Dataset& data) {
    std::vector<RoundRecord> rounds;
    rounds.reserve(tape.size());
    for (snapshot::TapeRound& t : tape) {
      RoundRecord rec;
      rec.pre_probs = std::move(t.pre_probs);
      rec.pre_accs = std::move(t.pre_accs);
      rec.copies = std::move(t.copies);
      rec.has_index = t.has_index;
      if (t.has_index) {
        auto index = InvertedIndex::FromParts(
            data, std::move(t.index_entries),
            static_cast<size_t>(t.index_tail_begin), t.index_ordering);
        if (!index.ok()) return index.status();
        rec.index = std::move(*index);
      }
      rounds.push_back(std::move(rec));
    }
    previous_ = std::move(rounds);
    previous_has_copies_ = has_copies;
    return Status::OK();
  }

  // --- RoundObserver. ---

  void BeforeDetect(int round, DetectionInput* in) override {
    if (!run_open_) return;
    RoundRecord rec;
    // The taped probabilities are only ever read by the pair-splice
    // replay (gated on previous_has_copies_), so don't pay the
    // per-round O(slots) copy for detectors that can't splice.
    // pre_accs is always kept: round 1's accuracies feed Rebase.
    if (recording_copies_) rec.pre_probs = *in->value_probs;
    rec.pre_accs = *in->accuracies;
    recording_.push_back(std::move(rec));
    if (round == 1) {
      // The sink is consumed synchronously inside this round's
      // DetectRound, before the vector can reallocate.
      in->index_sink = &recording_.back().index;
    }

    if (!replaying_ || round > static_cast<int>(previous_.size())) {
      return;
    }
    const RoundRecord& prev = previous_[static_cast<size_t>(round) - 1];
    hints_ = UpdateHints();
    const Dataset& data = *data_;
    const std::vector<double>& accs = *in->accuracies;
    const std::vector<double>& probs = *in->value_probs;
    const std::vector<SlotId>& slot_map = summary_.old_to_new_slot;
    if (previous_has_copies_ && prev.pre_accs.size() <= accs.size() &&
        prev.pre_probs.size() == slot_map.size()) {
      // A source is clean for this round when it is structurally
      // clean AND its accuracy and all of its slots' probabilities
      // are bitwise-equal to the previous run's same round — exactly
      // the inputs a pair-local detector reads for the pairs the
      // source is part of.
      clean_sources_ = structurally_clean_;
      for (size_t s = 0; s < prev.pre_accs.size(); ++s) {
        if (accs[s] != prev.pre_accs[s]) clean_sources_[s] = 0;
      }
      slot_clean_.assign(data.num_slots(), 0);
      for (SlotId ov = 0; ov < slot_map.size(); ++ov) {
        SlotId nv = slot_map[ov];
        if (nv != kInvalidSlot && probs[nv] == prev.pre_probs[ov]) {
          slot_clean_[nv] = 1;
        }
      }
      for (SourceId s = 0; s < data.num_sources(); ++s) {
        if (clean_sources_[s] == 0) continue;
        for (SlotId v : data.slots_of(s)) {
          if (slot_clean_[v] == 0) {
            clean_sources_[s] = 0;
            break;
          }
        }
      }
      hints_.cached = &prev.copies;
      hints_.clean_sources = &clean_sources_;
    }
    if (round == 1 && prev.has_index) {
      // Round 1 runs at the initial constant accuracies, so the
      // previous round-1 index can be rebased (Rebase re-verifies
      // and falls back on its own).
      hints_.prev_index = &prev.index;
      hints_.prev_index_accuracies = &prev.pre_accs;
      hints_.summary = &summary_;
    }
    if (hints_.cached != nullptr || hints_.prev_index != nullptr) {
      in->hints = &hints_;
    }
  }

  void AfterRound(int round, const FusionResult& state) override {
    if (!run_open_ ||
        recording_.size() < static_cast<size_t>(round)) {
      return;
    }
    RoundRecord& rec = recording_[static_cast<size_t>(round) - 1];
    if (recording_copies_) rec.copies = state.copies;
    rec.has_index = rec.index.data_or_null() != nullptr;
    if (pairwise_ != nullptr) {
      reused_pairs_ += pairwise_->last_reused_pairs();
    }
  }

 private:
  /// One fusion round on tape: the state detection read, what it
  /// produced, and (round 1, index family) the index it built.
  struct RoundRecord {
    std::vector<double> pre_probs;  // per slot, the round's id space
    std::vector<double> pre_accs;   // per source
    CopyResult copies;
    InvertedIndex index;
    bool has_index = false;
  };

  void SetOverlaps(std::shared_ptr<const OverlapCounts> counts,
                   uint64_t generation) {
    if (overlaps_generation_ != 0) {
      SharedOverlaps::Withdraw(overlaps_generation_);
    }
    overlaps_ = std::move(counts);
    overlaps_generation_ = generation;
    SharedOverlaps::Publish(overlaps_generation_, overlaps_);
  }

  const bool maintain_overlaps_;
  std::shared_ptr<const OverlapCounts> overlaps_;
  uint64_t overlaps_generation_ = 0;

  const Dataset* data_ = nullptr;
  /// Non-null when the run's detector is pair-local (can splice).
  const PairwiseDetector* pairwise_ = nullptr;
  std::vector<RoundRecord> recording_;
  std::vector<RoundRecord> previous_;
  DeltaSummary summary_;
  std::vector<uint8_t> structurally_clean_;
  std::vector<uint8_t> clean_sources_;
  std::vector<uint8_t> slot_clean_;
  UpdateHints hints_;
  uint64_t reused_pairs_ = 0;
  bool recording_copies_ = false;
  bool previous_has_copies_ = false;
  bool replay_armed_ = false;
  bool replaying_ = false;
  bool run_open_ = false;
};

Status SessionOptions::Validate() const {
  std::vector<std::string> problems;
  // Model-parameter ranges, mirroring DetectionParams::Validate() (the
  // unit tests in tests/session_test.cc pin the two in sync) — but
  // collected instead of first-failure.
  Require(alpha > 0.0 && alpha < 0.25, &problems,
          StrFormat("alpha must be in (0, 0.25), got %g", alpha));
  Require(s > 0.0 && s < 1.0, &problems,
          StrFormat("s must be in (0, 1), got %g", s));
  Require(n >= 1.0, &problems, StrFormat("n must be >= 1, got %g", n));
  Require(rho_accuracy > 0.0, &problems,
          "rho_accuracy must be positive");
  Require(rho_value > 0.0, &problems, "rho_value must be positive");
  // Loop controls.
  Require(max_rounds >= 0, &problems,
          StrFormat("max_rounds must be >= 0, got %d", max_rounds));
  Require(epsilon > 0.0, &problems,
          StrFormat("epsilon must be positive, got %g", epsilon));
  Require(initial_accuracy > 0.0 && initial_accuracy < 1.0, &problems,
          StrFormat("initial_accuracy must be in (0, 1), got %g",
                    initial_accuracy));
  Require(damping >= 0.0 && damping < 1.0, &problems,
          StrFormat("damping must be in [0, 1), got %g", damping));
  // Detector and sampling.
  if (use_copy_detection &&
      !DetectorRegistry::Global().Contains(detector)) {
    problems.push_back("unknown detector '" + detector +
                       "' (available: " + ListDetectorsJoined() + ")");
  }
  Require(sample_rate >= 0.0 && sample_rate <= 1.0, &problems,
          StrFormat("sample_rate must be in [0, 1] (0 disables "
                    "sampling), got %g",
                    sample_rate));
  Require(update_rebuild_fraction >= 0.0 &&
              update_rebuild_fraction <= 1.0,
          &problems,
          StrFormat("update_rebuild_fraction must be in [0, 1], got %g",
                    update_rebuild_fraction));
  // Shard plan.
  Require(plan.num_shards >= 1, &problems,
          "plan.num_shards must be at least 1");
  Require(plan.num_shards < 1 || plan.shard_id < plan.num_shards,
          &problems,
          StrFormat("plan.shard_id %u out of range for %u shards",
                    plan.shard_id, plan.num_shards));
  if (plan.active()) {
    // A plan-restricted detector sees only its owned pairs, so state
    // maintained across rounds/updates and sampled sub-snapshots
    // cannot be reconciled with the merged whole.
    Require(!online_updates, &problems,
            "a multi-shard plan is incompatible with online_updates");
    Require(sample_rate == 0.0, &problems,
            "a multi-shard plan is incompatible with detection "
            "sampling");
  }
  if (!problems.empty()) {
    std::string joined;
    for (const std::string& p : problems) {
      if (!joined.empty()) joined += "; ";
      joined += p;
    }
    return Status::InvalidArgument("invalid SessionOptions: " + joined);
  }
  // Defensive: if the per-field rules above ever drift from
  // DetectionParams::Validate(), surface its verdict instead of
  // letting the mismatch hide until Run.
  return ToDetectionParams().Validate();
}

DetectionParams SessionOptions::ToDetectionParams() const {
  DetectionParams params;
  params.alpha = alpha;
  params.s = s;
  params.n = n;
  params.hybrid_threshold = hybrid_threshold;
  params.rho_accuracy = rho_accuracy;
  params.rho_value = rho_value;
  params.plan = plan;
  return params;
}

FusionOptions SessionOptions::ToFusionOptions() const {
  FusionOptions fusion;
  fusion.params = ToDetectionParams();
  fusion.max_rounds = max_rounds;
  fusion.epsilon = epsilon;
  fusion.initial_accuracy = initial_accuracy;
  fusion.use_copy_detection = use_copy_detection;
  fusion.damping = damping;
  return fusion;
}

Session::Session(SessionOptions options, std::string detector_name,
                 std::unique_ptr<Executor> executor,
                 std::unique_ptr<CopyDetector> detector)
    : options_(std::move(options)),
      detector_name_(std::move(detector_name)),
      executor_(std::move(executor)),
      detector_(std::move(detector)) {}

Session::Session(Session&&) noexcept = default;
Session& Session::operator=(Session&&) noexcept = default;
Session::~Session() = default;

StatusOr<Session> Session::Create(const SessionOptions& options) {
  CD_RETURN_IF_ERROR(options.Validate());
  auto executor = std::make_unique<Executor>(options.threads);
  DetectionParams params = options.ToDetectionParams();
  params.executor = executor.get();
  std::string name;
  std::unique_ptr<CopyDetector> detector;
  if (options.use_copy_detection) {
    name = DetectorRegistry::Global().Resolve(options.detector);
    auto made = DetectorRegistry::Global().Create(name, params);
    if (!made.ok()) return made.status();
    detector = std::move(made).value();
    if (options.sample_rate > 0.0) {
      SampleSpec spec;
      spec.method = options.sample_method;
      spec.rate = options.sample_rate;
      spec.min_items_per_source = options.sample_min_items_per_source;
      spec.seed = options.sample_seed;
      detector = std::make_unique<SampledDetector>(
          params, std::move(detector), spec);
    }
  }
  Session session(options, std::move(name), std::move(executor),
                  std::move(detector));
  // The recorder/replayer only pays off with an unsampled detector in
  // the loop (a SampledDetector re-detects on its own sub-snapshot;
  // accuracy-only runs have nothing to record). Update itself works
  // without it — it just re-runs cold every time.
  if (options.online_updates && options.use_copy_detection &&
      options.sample_rate == 0.0) {
    // PAIRWISE never reads overlap counts; maintaining them for it
    // would be pure overhead.
    session.update_ = std::make_unique<SessionUpdateState>(
        /*maintain_overlaps=*/session.detector_name_ != "pairwise");
  }
  return session;
}

size_t Session::threads() const { return executor_->num_threads(); }

Status Session::Start(const Dataset& data) {
  if (options_.plan.active()) {
    return Status::FailedPrecondition(
        "Session::Run/Start with a multi-shard plan would report a "
        "partial pair set — drive the run through InitShardedRun / "
        "RunShardRound / MergeShardRound");
  }
  if (options_.online_updates) {
    // Own the snapshot: Update chains deltas off it without imposing
    // lifetime rules on the caller's object. The copy shares the
    // generation (identical content), so published overlap counts
    // apply to both.
    snapshot_ = std::make_unique<Dataset>(data);
    prev_snapshot_.reset();
    if (update_ != nullptr) update_->DisarmReplay();
    return StartOn(*snapshot_);
  }
  // A Load()ed session owns its snapshot even without online_updates;
  // a fresh run on other data supersedes it — keeping it would make
  // current_data() (and a later Save) serve the stale loaded data
  // set next to the new run's results. Unless the caller is running
  // on that very snapshot, which must stay alive.
  if (snapshot_ != nullptr && &data != snapshot_.get()) {
    snapshot_.reset();
  }
  return StartOn(data);
}

Status Session::StartOn(const Dataset& data) {
  // Fresh run: drop cross-round detector state so consecutive runs on
  // one Session match runs on freshly created Sessions.
  if (detector_ != nullptr) detector_->Reset();
  merged_counters_.reset();
  FusionOptions fusion = options_.ToFusionOptions();
  fusion.params.executor = executor_.get();
  loop_ = std::make_unique<FusionLoop>(fusion);
  data_ = &data;
  report_ = Report();
  if (update_ != nullptr) {
    update_->BeginRun(data, detector_.get());
    loop_->set_observer(update_.get());
  }
  return loop_->Start(data, detector_.get());
}

StatusOr<bool> Session::Step() {
  if (loop_ == nullptr) {
    return Status::FailedPrecondition("Session::Step before Start");
  }
  StatusOr<bool> stepped = loop_->Step();
  if (update_ != nullptr) {
    if (!stepped.ok()) {
      update_->EndRun(/*success=*/false);
    } else if (*stepped && loop_->done()) {
      update_->EndRun(/*success=*/true);
    }
  }
  return stepped;
}

bool Session::running() const {
  return loop_ != nullptr && !loop_->done();
}

int Session::round() const {
  return loop_ != nullptr ? loop_->round() : 0;
}

void Session::RefreshReport() {
  report_.detector = detector_name_;
  report_.threads = threads();
  // Mid-run snapshots get a truth computed from the current round's
  // value probabilities; the loop finalizes truth itself on the last
  // round.
  if (report_.fusion.truth.empty() && data_ != nullptr) {
    report_.fusion.truth =
        ChooseTruth(*data_, report_.fusion.value_probs);
  }
  report_.counters = merged_counters_.has_value()
                         ? *merged_counters_
                         : (detector_ != nullptr ? detector_->counters()
                                                 : Counters());
  report_.graph = AnalyzeCopyGraph(report_.fusion.copies);
  report_.incremental_rounds.clear();
  // See through the sampling wrapper: a sampled incremental session
  // still reports its pass statistics.
  const CopyDetector* unwrapped = detector_.get();
  if (const auto* sampled =
          dynamic_cast<const SampledDetector*>(unwrapped)) {
    unwrapped = &sampled->base();
  }
  if (const auto* inc =
          dynamic_cast<const IncrementalDetector*>(unwrapped)) {
    for (const IncrementalDetector::RoundStats& rs :
         inc->round_stats()) {
      IncrementalRoundInfo info;
      info.round = rs.round;
      info.pass1 = rs.pass1;
      info.pass2 = rs.pass2;
      info.pass3 = rs.pass3;
      info.exact = rs.exact;
      info.seconds = rs.seconds;
      info.from_scratch = rs.from_scratch;
      report_.incremental_rounds.push_back(info);
    }
  }
}

const Report& Session::report() {
  if (loop_ != nullptr) report_.fusion = loop_->result();
  RefreshReport();
  return report_;
}

Status Session::FinishLoop() {
  while (true) {
    StatusOr<bool> stepped = loop_->Step();
    if (!stepped.ok()) {
      if (update_ != nullptr) update_->EndRun(/*success=*/false);
      return stepped.status();
    }
    if (!*stepped) break;
  }
  if (update_ != nullptr) update_->EndRun(/*success=*/true);
  report_.fusion = std::move(*loop_).Take();
  RefreshReport();
  loop_.reset();
  return Status::OK();
}

StatusOr<Report> Session::Run(const Dataset& data) {
  // One-shot runs never leave streaming state behind — in particular
  // not a dangling data_ pointer when a round fails mid-run.
  auto fail = [this](const Status& status) {
    if (update_ != nullptr) update_->EndRun(/*success=*/false);
    report_ = Report();
    loop_.reset();
    data_ = nullptr;
    return status;
  };
  Status started = Start(data);
  if (!started.ok()) return fail(started);
  Status finished = FinishLoop();
  if (!finished.ok()) return fail(finished);
  if (options_.online_updates) {
    // Keep the report and snapshot live: Update and report() chain
    // off them. The caller gets a copy.
    return report_;
  }
  Report out = std::move(report_);
  report_ = Report();
  data_ = nullptr;
  return out;
}

namespace {

/// Real-valued SessionOptions fields by their stable OPTIONS-section
/// names (docs/FORMATS.md lists the full set).
constexpr std::pair<std::string_view, double SessionOptions::*>
    kRealOptionFields[] = {
        {"alpha", &SessionOptions::alpha},
        {"s", &SessionOptions::s},
        {"n", &SessionOptions::n},
        {"rho_accuracy", &SessionOptions::rho_accuracy},
        {"rho_value", &SessionOptions::rho_value},
        {"epsilon", &SessionOptions::epsilon},
        {"initial_accuracy", &SessionOptions::initial_accuracy},
        {"damping", &SessionOptions::damping},
        {"sample_rate", &SessionOptions::sample_rate},
        {"update_rebuild_fraction",
         &SessionOptions::update_rebuild_fraction},
};

/// The OPTIONS section of a saved session: every SessionOptions field
/// under its stable name. Load() refuses names it does not know, so a
/// field added by a future version cannot be dropped silently —
/// adding one goes hand in hand with a format version bump.
std::vector<snapshot::OptionField> OptionFieldsOf(
    const SessionOptions& o) {
  using F = snapshot::OptionField;
  std::vector<F> fields;
  fields.push_back(F::Text("detector", o.detector));
  for (const auto& [name, member] : kRealOptionFields) {
    fields.push_back(F::Real(std::string(name), o.*member));
  }
  fields.push_back(F::Uint("hybrid_threshold", o.hybrid_threshold));
  fields.push_back(
      F::Uint("max_rounds", static_cast<uint64_t>(o.max_rounds)));
  fields.push_back(F::Bool("use_copy_detection", o.use_copy_detection));
  fields.push_back(F::Uint("threads", o.threads));
  fields.push_back(F::Uint("sample_method",
                           static_cast<uint64_t>(o.sample_method)));
  fields.push_back(F::Uint("sample_min_items_per_source",
                           o.sample_min_items_per_source));
  fields.push_back(F::Uint("sample_seed", o.sample_seed));
  fields.push_back(F::Bool("online_updates", o.online_updates));
  return fields;
}

Status OptionsFromFields(const std::vector<snapshot::OptionField>& fields,
                         SessionOptions* out) {
  using F = snapshot::OptionField;
  for (const F& f : fields) {
    auto typed = [&f](F::Type want) -> Status {
      if (f.type == want) return Status::OK();
      return Status::InvalidArgument(
          "snapshot: OPTIONS field '" + f.name +
          "' has an unexpected type — file written by an incompatible "
          "library");
    };
    bool real_field = false;
    for (const auto& [name, member] : kRealOptionFields) {
      if (f.name == name) {
        CD_RETURN_IF_ERROR(typed(F::Type::kReal));
        out->*member = f.real_value;
        real_field = true;
        break;
      }
    }
    if (real_field) continue;
    if (f.name == "detector") {
      CD_RETURN_IF_ERROR(typed(F::Type::kText));
      out->detector = f.text_value;
    } else if (f.name == "hybrid_threshold") {
      CD_RETURN_IF_ERROR(typed(F::Type::kUint));
      out->hybrid_threshold = static_cast<size_t>(f.uint_value);
    } else if (f.name == "max_rounds") {
      CD_RETURN_IF_ERROR(typed(F::Type::kUint));
      out->max_rounds = static_cast<int>(f.uint_value);
    } else if (f.name == "use_copy_detection") {
      CD_RETURN_IF_ERROR(typed(F::Type::kBool));
      out->use_copy_detection = f.uint_value != 0;
    } else if (f.name == "threads") {
      CD_RETURN_IF_ERROR(typed(F::Type::kUint));
      out->threads = static_cast<size_t>(f.uint_value);
    } else if (f.name == "sample_method") {
      CD_RETURN_IF_ERROR(typed(F::Type::kUint));
      if (f.uint_value >
          static_cast<uint64_t>(SamplingMethod::kScaleSample)) {
        return Status::InvalidArgument(StrFormat(
            "snapshot: unknown sampling method %llu in OPTIONS",
            static_cast<unsigned long long>(f.uint_value)));
      }
      out->sample_method = static_cast<SamplingMethod>(f.uint_value);
    } else if (f.name == "sample_min_items_per_source") {
      CD_RETURN_IF_ERROR(typed(F::Type::kUint));
      out->sample_min_items_per_source =
          static_cast<size_t>(f.uint_value);
    } else if (f.name == "sample_seed") {
      CD_RETURN_IF_ERROR(typed(F::Type::kUint));
      out->sample_seed = f.uint_value;
    } else if (f.name == "online_updates") {
      CD_RETURN_IF_ERROR(typed(F::Type::kBool));
      out->online_updates = f.uint_value != 0;
    } else {
      return Status::InvalidArgument(
          "snapshot: unknown OPTIONS field '" + f.name +
          "' — the file was written by a newer library (new fields "
          "ship with a format version bump); refusing to drop "
          "configuration silently");
    }
  }
  return Status::OK();
}

}  // namespace

std::string Report::ToJson(const Dataset& data) const {
  // The pair map iterates in table order; sort by (a, b) so the bytes
  // are independent of hash layout.
  struct Pair {
    SourceId a;
    SourceId b;
    PairPosterior p;
  };
  std::vector<Pair> pairs;
  pairs.reserve(fusion.copies.NumTracked());
  fusion.copies.ForEach(
      [&pairs](SourceId a, SourceId b, const PairPosterior& p) {
        if (p.IsCopying()) pairs.push_back({a, b, p});
      });
  std::sort(pairs.begin(), pairs.end(), [](const Pair& x, const Pair& y) {
    return x.a != y.a ? x.a < y.a : x.b < y.b;
  });

  // Size the output once: each entry's fixed bytes with every number
  // at its longest (24 bytes), plus the names it carries. Only names
  // that need escaping can outgrow this.
  constexpr size_t kNumber = 24;
  size_t size = 256 + detector.size();
  for (size_t item = 0; item < fusion.truth.size(); ++item) {
    size += 40 + kNumber + data.item_name(static_cast<ItemId>(item)).size();
    if (fusion.truth[item] != kInvalidSlot) {
      size += data.slot_value(fusion.truth[item]).size();
    }
  }
  for (size_t s = 0; s < fusion.accuracies.size(); ++s) {
    size += 26 + kNumber +
            data.source_name(static_cast<SourceId>(s)).size();
  }
  for (const Pair& pr : pairs) {
    size += 70 + 3 * kNumber + data.source_name(pr.a).size() +
            data.source_name(pr.b).size();
  }
  for (const CopyCluster& cluster : graph.clusters) {
    size += 48;
    if (cluster.original != kInvalidSource) {
      size += data.source_name(cluster.original).size();
    }
    for (SourceId m : cluster.members) {
      size += 3 + data.source_name(m).size();
    }
    for (const ClassifiedEdge& e : cluster.edges) {
      size += 80 + 2 * kNumber + data.source_name(e.a).size() +
              data.source_name(e.b).size();
    }
  }

  // Members in the order the contract in session.h lists;
  // tests/report_json_test.cc holds these bytes to a JsonValue-tree
  // rendering of the same report.
  std::string out;
  out.reserve(size);
  out += "{\"detector\":";
  AppendJsonString(detector, &out);
  out += ",\"threads\":";
  out += std::to_string(threads);
  out += ",\"rounds\":";
  out += std::to_string(fusion.rounds);
  out += fusion.converged ? ",\"converged\":true" : ",\"converged\":false";
  out += ",\"num_sources\":";
  out += std::to_string(data.num_sources());
  out += ",\"num_items\":";
  out += std::to_string(data.num_items());

  out += ",\"truth\":[";
  for (size_t item = 0; item < fusion.truth.size(); ++item) {
    if (item > 0) out += ',';
    out += "{\"item\":";
    AppendJsonString(data.item_name(static_cast<ItemId>(item)), &out);
    const SlotId slot = fusion.truth[item];
    if (slot == kInvalidSlot) {
      out += ",\"value\":null,\"probability\":null}";
      continue;
    }
    out += ",\"value\":";
    AppendJsonString(data.slot_value(slot), &out);
    out += ",\"probability\":";
    AppendJsonDouble(
        slot < fusion.value_probs.size() ? fusion.value_probs[slot] : 0.0,
        &out);
    out += '}';
  }

  out += "],\"accuracies\":[";
  for (size_t s = 0; s < fusion.accuracies.size(); ++s) {
    if (s > 0) out += ',';
    out += "{\"source\":";
    AppendJsonString(data.source_name(static_cast<SourceId>(s)), &out);
    out += ",\"accuracy\":";
    AppendJsonDouble(fusion.accuracies[s], &out);
    out += '}';
  }

  out += "],\"copies\":[";
  for (size_t i = 0; i < pairs.size(); ++i) {
    const Pair& pr = pairs[i];
    if (i > 0) out += ',';
    out += "{\"a\":";
    AppendJsonString(data.source_name(pr.a), &out);
    out += ",\"b\":";
    AppendJsonString(data.source_name(pr.b), &out);
    out += ",\"p_indep\":";
    AppendJsonDouble(pr.p.p_indep, &out);
    out += ",\"p_a_copies_b\":";
    AppendJsonDouble(pr.p.p_first_copies, &out);
    out += ",\"p_b_copies_a\":";
    AppendJsonDouble(pr.p.p_second_copies, &out);
    out += '}';
  }

  out += "],\"clusters\":[";
  for (size_t c = 0; c < graph.clusters.size(); ++c) {
    const CopyCluster& cluster = graph.clusters[c];
    if (c > 0) out += ',';
    out += "{\"original\":";
    if (cluster.original == kInvalidSource) {
      out += "null";
    } else {
      AppendJsonString(data.source_name(cluster.original), &out);
    }
    out += ",\"members\":[";
    for (size_t i = 0; i < cluster.members.size(); ++i) {
      if (i > 0) out += ',';
      AppendJsonString(data.source_name(cluster.members[i]), &out);
    }
    out += "],\"edges\":[";
    for (size_t i = 0; i < cluster.edges.size(); ++i) {
      const ClassifiedEdge& e = cluster.edges[i];
      if (i > 0) out += ',';
      out += "{\"a\":";
      AppendJsonString(data.source_name(e.a), &out);
      out += ",\"b\":";
      AppendJsonString(data.source_name(e.b), &out);
      out += e.kind == EdgeKind::kDirect   ? ",\"kind\":\"direct\""
             : e.kind == EdgeKind::kCoCopy ? ",\"kind\":\"co-copy\""
                                           : ",\"kind\":\"indirect\"";
      out += ",\"p_a_copies_b\":";
      AppendJsonDouble(e.pr_a_copies_b, &out);
      out += ",\"p_b_copies_a\":";
      AppendJsonDouble(e.pr_b_copies_a, &out);
      out += '}';
    }
    out += "]}";
  }
  out += "]}";
  // Deliberately absent: the timing fields of FusionResult (wall time
  // is never deterministic) and the detector counters (per-run, reset
  // to zero by Session::Load — including them would make a reloaded
  // session render differently from the one that wrote the snapshot).
  return out;
}

Status Session::Save(const std::string& path) {
  if (running()) {
    return Status::FailedPrecondition(
        "Session::Save mid-run — drive the streaming run to its final "
        "Step first");
  }
  const Dataset* data = current_data();
  if (data == nullptr) {
    return Status::FailedPrecondition(
        "Session::Save: no state to save — complete a run first "
        "(without online_updates, Run() hands its state to the caller "
        "and keeps nothing; use online_updates or the streaming API)");
  }
  // A finished streaming run keeps its result in the loop; sync it
  // into the report before persisting.
  if (loop_ != nullptr) report_.fusion = loop_->result();
  // Fail here, not at some later Load: a fusion result that does not
  // match the current data (e.g. a run's report was handed to the
  // caller and the session kept only a loaded snapshot) must never
  // reach disk.
  if (report_.fusion.accuracies.size() != data->num_sources() ||
      report_.fusion.value_probs.size() != data->num_slots()) {
    return Status::FailedPrecondition(
        "Session::Save: the session holds no fusion state for its "
        "current data set — complete a run on it first");
  }
  snapshot::SessionState state;
  state.generation = data->generation();
  state.options = OptionFieldsOf(options_);
  state.data = *data;
  state.fusion = report_.fusion;
  if (update_ != nullptr && update_->HasOverlapsFor(state.generation)) {
    state.has_overlaps = true;
    state.overlaps_generation = state.generation;
    state.overlaps = update_->overlaps();
  }
  if (update_ != nullptr && update_->HasTape()) {
    update_->ExportTape(&state);
    state.tape_generation = state.generation;
  }
  return snapshot::Write(path, state);
}

StatusOr<Session> Session::Load(const std::string& path,
                                const LoadOptions& options) {
  auto state = options.mode == LoadMode::kMapped
                   ? snapshot::ReadMapped(path)
                   : snapshot::Read(path);
  if (!state.ok()) return state.status();
  SessionOptions session_options;
  Status parsed = OptionsFromFields(state->options, &session_options);
  if (!parsed.ok()) return parsed;
  auto session = Session::Create(session_options);
  if (!session.ok()) return session.status();
  Status installed = session->InstallLoaded(std::move(*state));
  if (!installed.ok()) return installed;
  return session;
}

Status Session::InstallLoaded(snapshot::SessionState state) {
  // The loaded snapshot draws a fresh process-local generation; every
  // piece of derived state below is rebound to it.
  snapshot_ = std::make_unique<Dataset>(std::move(state.data));
  data_ = snapshot_.get();
  report_ = Report();
  report_.fusion = std::move(state.fusion);
  if (update_ != nullptr) {
    if (state.has_overlaps) {
      update_->InstallOverlaps(std::make_shared<const OverlapCounts>(
                                   std::move(state.overlaps)),
                               snapshot_->generation());
    }
    if (state.has_tape) {
      CD_RETURN_IF_ERROR(update_->InstallTape(
          std::move(state.tape), state.tape_has_copies, *snapshot_));
    }
  }
  RefreshReport();
  return Status::OK();
}

Status Session::Update(const DatasetDelta& delta) {
  if (!options_.online_updates) {
    return Status::FailedPrecondition(
        "Session::Update requires SessionOptions::online_updates");
  }
  if (running()) {
    return Status::FailedPrecondition(
        "Session::Update while a streaming run is active — finish it "
        "first");
  }
  if (snapshot_ == nullptr) {
    return Status::FailedPrecondition(
        "Session::Update before the first Run/Start");
  }

  update_stats_ = UpdateStats();
  Stopwatch apply_watch;
  apply_watch.Start();
  auto applied = snapshot_->Apply(delta);
  if (!applied.ok()) return applied.status();
  auto next = std::make_unique<Dataset>(std::move(applied->data));
  DeltaSummary summary = std::move(applied->summary);
  update_stats_.touched_sources = summary.touched_sources.size();
  update_stats_.touched_items = summary.touched_items.size();
  update_stats_.added_observations = summary.added;
  update_stats_.overwritten_observations = summary.overwritten;
  update_stats_.retracted_observations = summary.retracted;

  // A delta touching most of the data invalidates nearly every piece
  // of prior state — skip the maintenance machinery and re-run cold
  // (bit-identical either way; this is purely a cost decision).
  const bool small = summary.TouchedItemFraction(*next) <=
                     options_.update_rebuild_fraction;
  update_stats_.incremental = small && update_ != nullptr;
  if (update_ != nullptr) {
    update_stats_.overlaps_maintained = update_->AdvanceOverlaps(
        *snapshot_, *next, summary, /*allow_incremental=*/small);
    if (small) {
      update_->ArmReplay(std::move(summary), *next);
    } else {
      update_->DisarmReplay();
    }
  }
  // The old snapshot stays alive through the run: the previous tape's
  // round-1 index references it.
  prev_snapshot_ = std::move(snapshot_);
  snapshot_ = std::move(next);
  apply_watch.Stop();
  update_stats_.apply_seconds = apply_watch.Seconds();

  Stopwatch run_watch;
  run_watch.Start();
  Status status = StartOn(*snapshot_);
  if (status.ok()) status = FinishLoop();
  run_watch.Stop();
  update_stats_.run_seconds = run_watch.Seconds();
  if (update_ != nullptr) {
    update_stats_.reused_pairs = update_->reused_pairs();
  }
  prev_snapshot_.reset();
  if (!status.ok()) {
    if (update_ != nullptr) update_->EndRun(/*success=*/false);
    // Mirror Run's failure path: clear data_ too, so a subsequent
    // report() doesn't compute truth from an empty fusion state.
    report_ = Report();
    loop_.reset();
    data_ = nullptr;
    return status;
  }
  return Status::OK();
}

namespace {

/// Stands in for the detector inside the BSP merge's single fusion
/// Step: DetectRound serves the already-merged shard copies verbatim,
/// so the Step reads exactly what a single-process detector would
/// have produced for the round.
class PrecomputedDetector : public CopyDetector {
 public:
  PrecomputedDetector(const DetectionParams& params, CopyResult copies)
      : CopyDetector(params), copies_(std::move(copies)) {}

  std::string_view name() const override { return "precomputed"; }

  Status DetectRound(const DetectionInput& in, int round,
                     CopyResult* out) override {
    (void)in;
    (void)round;
    *out = copies_;
    return Status::OK();
  }

 private:
  CopyResult copies_;
};

}  // namespace

Status Session::CheckBspEligible() const {
  if (detector_ == nullptr) {
    return Status::FailedPrecondition(
        "sharded runs need a detector — nothing to shard in an "
        "accuracy-only session");
  }
  if (options_.online_updates || options_.sample_rate > 0.0) {
    return Status::FailedPrecondition(
        "sharded runs are incompatible with online_updates and "
        "detection sampling");
  }
  if (detector_name_ == "incremental") {
    return Status::FailedPrecondition(
        "the incremental detector keeps cross-round state that cannot "
        "survive the per-round process boundary of a sharded run — "
        "use a round-stateless detector");
  }
  if (options_.max_rounds < 1) {
    return Status::FailedPrecondition(
        "sharded runs need max_rounds >= 1");
  }
  return Status::OK();
}

Status Session::InitShardedRun(const Dataset& data,
                               const std::string& state_path) {
  CD_RETURN_IF_ERROR(CheckBspEligible());
  snapshot::BspState state;
  state.num_shards = options_.plan.num_shards;
  // Round 0 exactly as FusionLoop::Start computes it, so the sharded
  // run's round 1 reads bit-identical inputs.
  state.fusion.value_probs = InitialValueProbs(data);
  state.fusion.accuracies =
      InitialAccuracies(data.num_sources(), options_.initial_accuracy);
  return snapshot::WriteBspState(state_path, state);
}

Status Session::RunShardRound(const Dataset& data,
                              const std::string& state_path,
                              const std::string& shard_path) {
  CD_RETURN_IF_ERROR(CheckBspEligible());
  auto state = snapshot::ReadBspState(state_path, data);
  if (!state.ok()) return state.status();
  if (state->num_shards != options_.plan.num_shards) {
    return Status::InvalidArgument(StrFormat(
        "shard round: the state file frames a %u-shard run but this "
        "session's plan says %u shards",
        state->num_shards, options_.plan.num_shards));
  }
  if (state->fusion.converged ||
      state->fusion.rounds >= options_.max_rounds) {
    return Status::FailedPrecondition(
        "shard round: the sharded run already finished");
  }
  const int round = state->fusion.rounds + 1;
  // The detector was created with this session's plan in its params,
  // so it scores only the owned pairs. Reset makes repeated calls on
  // one session behave like the fresh process per superstep the
  // protocol assumes (and zeroes counters, so the shard file carries
  // this round's work alone).
  detector_->Reset();
  DetectionInput in;
  in.data = &data;
  in.value_probs = &state->fusion.value_probs;
  in.accuracies = &state->fusion.accuracies;
  ShardResult part;
  part.num_shards = options_.plan.num_shards;
  part.shard_id = options_.plan.shard_id;
  part.round = round;
  CD_RETURN_IF_ERROR(detector_->DetectRound(in, round, &part.copies));
  part.counters = detector_->counters();
  return snapshot::WriteShardResult(shard_path, part);
}

StatusOr<bool> Session::MergeShardRound(
    const Dataset& data, const std::vector<std::string>& shard_paths,
    const std::string& state_path) {
  CD_RETURN_IF_ERROR(CheckBspEligible());
  auto state = snapshot::ReadBspState(state_path, data);
  if (!state.ok()) return state.status();
  if (state->num_shards != options_.plan.num_shards) {
    return Status::InvalidArgument(StrFormat(
        "merge: the state file frames a %u-shard run but this "
        "session's plan says %u shards",
        state->num_shards, options_.plan.num_shards));
  }
  if (state->fusion.converged ||
      state->fusion.rounds >= options_.max_rounds) {
    return Status::FailedPrecondition(
        "merge: the sharded run already finished");
  }
  std::vector<ShardResult> parts;
  parts.reserve(shard_paths.size());
  for (const std::string& p : shard_paths) {
    auto part = snapshot::ReadShardResult(p, data);
    if (!part.ok()) return part.status();
    if (part->num_shards != state->num_shards) {
      return Status::InvalidArgument(StrFormat(
          "merge: %s belongs to a %u-shard run, the state file to a "
          "%u-shard one",
          p.c_str(), part->num_shards, state->num_shards));
    }
    if (part->round != state->fusion.rounds + 1) {
      return Status::InvalidArgument(StrFormat(
          "merge: %s holds round %d but the state file expects round "
          "%d",
          p.c_str(), part->round, state->fusion.rounds + 1));
    }
    parts.push_back(std::move(*part));
  }
  CopyResult merged;
  Counters round_counters;
  CD_RETURN_IF_ERROR(
      MergeShardResults(parts, &merged, &round_counters));
  state->counters += round_counters;

  // Advance the fusion loop exactly one round, the merged copies
  // standing in for the detection call. The merge sees the whole pair
  // set, so its params carry no plan.
  FusionOptions fusion = options_.ToFusionOptions();
  fusion.params.executor = executor_.get();
  fusion.params.plan = ShardPlan();
  PrecomputedDetector precomputed(fusion.params, std::move(merged));
  FusionLoop loop(fusion);
  CD_RETURN_IF_ERROR(
      loop.Resume(data, &precomputed, std::move(state->fusion)));
  StatusOr<bool> stepped = loop.Step();
  if (!stepped.ok()) return stepped.status();
  state->fusion = std::move(loop).Take();
  const bool done = state->fusion.converged ||
                    state->fusion.rounds >= options_.max_rounds;
  CD_RETURN_IF_ERROR(snapshot::WriteBspState(state_path, *state));
  if (done) {
    // Serve the finished run through report(). The session's own
    // detector never ran this work, so the counters accumulated over
    // the merged rounds stand in for detector_->counters().
    if (snapshot_ != nullptr && &data != snapshot_.get()) {
      snapshot_.reset();
    }
    loop_.reset();
    data_ = &data;
    report_ = Report();
    report_.fusion = std::move(state->fusion);
    merged_counters_ = state->counters;
    RefreshReport();
  }
  return done;
}

}  // namespace copydetect
