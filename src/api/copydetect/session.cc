#include "copydetect/session.h"

#include <algorithm>
#include <memory>
#include <utility>

#include "common/executor.h"
#include "common/json.h"
#include "common/timer.h"
#include "core/incremental.h"
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
  if (use_copy_detection && ResolveDetector(detector).empty()) {
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
      detector_(std::move(detector)),
      overlaps_(std::make_unique<OverlapCache>()) {}

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
    name = ResolveDetector(options.detector);
    auto made = CreateDetector(name, params);
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
  return Session(options, std::move(name), std::move(executor),
                 std::move(detector));
}

size_t Session::threads() const { return executor_->num_threads(); }

Status Session::Start(const Dataset& data) {
  if (options_.online_updates) {
    // Own the snapshot: Update chains deltas off it without imposing
    // lifetime rules on the caller's object. The copy shares the
    // generation (identical content), so the session's overlap counts
    // of the caller's data carry over to it.
    snapshot_ = std::make_unique<Dataset>(data);
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
  FusionOptions fusion = options_.ToFusionOptions();
  fusion.params.executor = executor_.get();
  loop_ = std::make_unique<FusionLoop>(fusion);
  data_ = &data;
  report_ = Report();
  return loop_->Start(data, detector_.get(), overlaps_.get());
}

StatusOr<bool> Session::Step() {
  if (loop_ == nullptr) {
    return Status::FailedPrecondition("Session::Step before Start");
  }
  return loop_->Step();
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
  report_.counters =
      detector_ != nullptr ? detector_->counters() : Counters();
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
  // Without a live loop nothing can change report_: FinishLoop and
  // InstallLoaded refreshed it once, and only a new Start, Run, Update
  // or Load replaces it.
  if (loop_ != nullptr) {
    report_.fusion = loop_->result();
    RefreshReport();
  }
  return report_;
}

Status Session::FinishLoop() {
  while (true) {
    StatusOr<bool> stepped = loop_->Step();
    if (!stepped.ok()) return stepped.status();
    if (!*stepped) break;
  }
  report_.fusion = std::move(*loop_).Take();
  RefreshReport();
  loop_.reset();
  return Status::OK();
}

StatusOr<Report> Session::Run(const Dataset& data) {
  // One-shot runs never leave streaming state behind — in particular
  // not a dangling data_ pointer when a round fails mid-run.
  auto fail = [this](const Status& status) {
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
  // Only online sessions persist their counts; Load installs them for
  // those alone.
  if (options_.online_updates && overlaps_->HasFor(state.generation)) {
    state.has_overlaps = true;
    state.overlaps_generation = state.generation;
    state.overlaps = overlaps_->counts();
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
  session->InstallLoaded(std::move(*state));
  return session;
}

void Session::InstallLoaded(snapshot::SessionState state) {
  // The loaded snapshot draws a fresh process-local generation; every
  // piece of derived state below is rebound to it.
  snapshot_ = std::make_unique<Dataset>(std::move(state.data));
  data_ = snapshot_.get();
  report_ = Report();
  report_.fusion = std::move(state.fusion);
  if (options_.online_updates && state.has_overlaps) {
    overlaps_->Set(std::move(state.overlaps), snapshot_->generation());
  }
  RefreshReport();
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

  // Stepping the overlap counts across a delta that touches most
  // items costs more than recounting them; either way the counts (and
  // hence the report) are identical. A session whose runs never read
  // the counts holds none and steps nothing.
  const bool small = summary.TouchedItemFraction(*next) <=
                     options_.update_rebuild_fraction;
  update_stats_.incremental = small;
  update_stats_.overlaps_maintained = overlaps_->Advance(
      *snapshot_, *next, summary.touched_items, small);
  // Nothing derived from the superseded snapshot outlives the overlap
  // patch, so it is freed before the re-run.
  snapshot_ = std::move(next);
  apply_watch.Stop();
  update_stats_.apply_seconds = apply_watch.Seconds();

  Stopwatch run_watch;
  run_watch.Start();
  Status status = StartOn(*snapshot_);
  if (status.ok()) status = FinishLoop();
  run_watch.Stop();
  update_stats_.run_seconds = run_watch.Seconds();
  if (!status.ok()) {
    // Mirror Run's failure path: clear data_ too, so a subsequent
    // report() doesn't compute truth from an empty fusion state.
    report_ = Report();
    loop_.reset();
    data_ = nullptr;
    return status;
  }
  return Status::OK();
}

}  // namespace copydetect
