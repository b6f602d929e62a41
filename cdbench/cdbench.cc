// cdbench — one benchmark for every user path of the engine, end to
// end and layer by layer (README.md in this directory explains every
// workload and metric).
//
//   cdbench --workload=<name|all> --seed=<k> --seconds=<s>
//           [--trace=<trace.json>] [--json=<out.json>]
//           [--expect=<BENCHMARK.json>] [--quick]
//
// Workloads (each runs in a fresh process; `all` re-executes this
// binary once per workload so memory peaks and warm caches never leak
// from one into the next):
//
//   batch-book   Session::Create + Run, closed loop (book-full, hybrid)
//   batch-stock  the same on dense stock-1day data at executor width 2
//   feed-update  Session::Update with seeded 10-cell feed batches
//   restart      Session::Load of a saved session, owned then mapped
//   serve-mixed  a spawned copydetectd over AF_UNIX: paced queries
//                beside paced updates, each update read back at once
//
// The end-to-end metrics are measured with tracing off. --trace adds a
// traced pass: bench-side spans around each call into a layer's public
// function (kept in memory, written at exit as Chrome trace-event JSON)
// plus layer probes on the workload's own world, from which the
// per-layer metrics are derived. A split that exists only inside one
// engine call is read from what the API returns (FusionResult::trace,
// Report::counters, UpdateStats), never from spans inside the engine.
//
// The last stdout line is one JSON object:
//   {"correct":true,"attempted":N,"failed":0,
//    "metrics":{"<name>":{"value":1.25,"unit":"ms"},...}}
// with the end-to-end metrics, or with --trace the per-layer ones. The
// exit code is non-zero when an operation failed or an output did not
// match its reference.

#include <malloc.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <sstream>
#include <stop_token>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/json.h"
#include "common/mutex.h"
#include "common/random.h"
#include "copydetect/session.h"
#include "copydetect/session_manager.h"

#ifndef CDBENCH_DAEMON
#define CDBENCH_DAEMON "copydetectd"
#endif
#ifndef CDBENCH_WORK_DIR
#define CDBENCH_WORK_DIR "cdbench-work"
#endif
#ifndef CDBENCH_BUILD_TYPE
#define CDBENCH_BUILD_TYPE ""
#endif
#ifndef CDBENCH_SANITIZE
#define CDBENCH_SANITIZE ""
#endif

using namespace copydetect;

namespace {

namespace fs = std::filesystem;
using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point begin) {
  return std::chrono::duration<double>(Clock::now() - begin).count();
}

/// Linear-interpolated quantile (numpy's default), 0 for no samples.
double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double Median(std::vector<double> v) { return Quantile(std::move(v), 0.5); }

// ---------------------------------------------------------------------
// Host-speed reference.

/// Fixed kernels timed right after every measured sample. On a shared
/// host a busy neighbour slows the engine by up to 70% for seconds at a
/// time, and by a different amount from one minute to the next; the
/// kernels slow with it. A time divided by the reference timed beside
/// it, times the reference's idle-host time, is what the sample would
/// have taken on the idle host: the end-to-end time metrics report
/// those. The kernels touch only buffers allocated here, once, so the
/// engine's heap never changes their cost, and no engine code runs in
/// them, so a change to the engine cannot move them.
class HostReference {
 public:
  /// The kernels' times on the idle reference host, a 4-vCPU Xeon VM.
  static constexpr double kMixSeconds = 10e-3;
  static constexpr double kFormatSeconds = 3.5e-3;

  /// One timing of the kernels. An op (engine work of every kind) is
  /// scaled by the whole mix; a read, a report render that is mostly
  /// number formatting and string building, by the formatting kernel,
  /// which tracks renders closest.
  struct Sample {
    double mix_s = 0.0;     ///< sort + format + hash probes
    double format_s = 0.0;  ///< the formatting kernel alone

    /// `seconds` of an op as the idle reference host takes them.
    double Op(double seconds) const { return seconds * kMixSeconds / mix_s; }
    /// The same for a read.
    double Read(double seconds) const {
      return seconds * kFormatSeconds / format_s;
    }
  };

  HostReference()
      : input_(kSortSize), work_(kSortSize), text_(kFormats * 32),
        table_(kTableSize, 0) {
    uint64_t state = 1;
    for (uint32_t& x : input_) x = static_cast<uint32_t>(Lcg(&state) >> 32);
  }

  /// Times each kernel once.
  Sample Measure() {
    Sample s;
    const double sort_s = Time([&] { return Sort(); });
    s.format_s = Time([&] { return Format(); });
    s.mix_s = sort_s + s.format_s + Time([&] { return Probe(); });
    return s;
  }

 private:
  static constexpr size_t kSortSize = size_t{1} << 16;
  static constexpr int kFormats = 8000;
  static constexpr size_t kTableSize = size_t{1} << 18;  // 2 MiB
  static constexpr int kProbes = 200000;

  /// Knuth's MMIX generator, inline so no engine code runs.
  static uint64_t Lcg(uint64_t* state) {
    *state = *state * 6364136223846793005ULL + 1442695040888963407ULL;
    return *state;
  }

  template <typename Kernel>
  double Time(Kernel&& kernel) {
    const auto begin = Clock::now();
    sink_ = kernel();
    return std::chrono::duration<double>(Clock::now() - begin).count();
  }

  /// Branchy compares over an L2-sized array.
  uint64_t Sort() {
    std::copy(input_.begin(), input_.end(), work_.begin());
    std::sort(work_.begin(), work_.end());
    return work_[kSortSize / 2];
  }

  /// Shortest round-trip rendering of doubles, as a report render does.
  uint64_t Format() {
    size_t used = 0;
    double v = 0.1;
    for (int i = 0; i < kFormats; ++i) {
      v = v * 1.0001 + 0.37;
      used += static_cast<size_t>(
          std::snprintf(text_.data() + used, 32, "%.17g,", v));
    }
    return used;
  }

  /// Open-addressing lookups and inserts of random keys.
  uint64_t Probe() {
    uint64_t state = 2;
    uint64_t found = 0;
    for (int i = 0; i < kProbes; ++i) {
      const uint64_t key = (Lcg(&state) >> 32) | 1;
      size_t slot = (key * 0x9e3779b97f4a7c15ULL) >> 46;
      while (table_[slot] != 0 && table_[slot] != key) {
        slot = (slot + 1) & (kTableSize - 1);
      }
      if (table_[slot] == key) {
        ++found;
      } else if (i % 2 == 1) {
        table_[slot] = key;
      }
    }
    return found;
  }

  std::vector<uint32_t> input_, work_;
  std::vector<char> text_;
  std::vector<uint64_t> table_;
  volatile uint64_t sink_ = 0;  ///< keeps the kernels' results alive
};

constexpr double kMiB = 1024.0 * 1024.0;

/// Peak resident set of this process (VmHWM), from getrusage.
double PeakRssMiB() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) * 1024.0 / kMiB;
}

/// Current resident set of this process.
double ResidentMiB() {
  std::ifstream statm("/proc/self/statm");
  uint64_t size = 0, resident = 0;
  statm >> size >> resident;
  return static_cast<double>(resident) *
         static_cast<double>(sysconf(_SC_PAGESIZE)) / kMiB;
}

// ---------------------------------------------------------------------
// Metric dictionary. BENCHMARK.json declares the same names; --expect
// checks that the two agree and that every one of them was measured.

struct MetricDef {
  const char* name;
  const char* unit;
};

constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"},  {"op_ms", "ms"},        {"op_cpu_ms", "ms"},
    {"read_ms", "ms"}, {"peak_rss_mb", "MiB"},
};

constexpr MetricDef kPerLayer[] = {
    {"api.create_ms", "ms"},
    {"api.render_ms", "ms"},
    {"api.render_kb", "KiB"},
    {"api.manager_update_ms", "ms"},
    {"api.update_maintain_ms", "ms"},
    {"api.update_rerun_ms", "ms"},
    {"api.incremental_ratio", "ratio"},
    {"api.update_vs_cold", "ratio"},
    {"model.apply_ms", "ms"},
    {"model.touched_items", "count"},
    {"fusion.rounds", "count"},
    {"fusion.step_ms", "ms"},
    {"fusion.fuse_ms", "ms"},
    {"fusion.observer_ms", "ms"},
    {"core.detect_ms", "ms"},
    {"core.detect_cpu_ms", "ms"},
    {"core.scan_cpu_ratio", "ratio"},
    {"core.score_evals", "count"},
    {"core.bound_evals", "count"},
    {"core.finalize_evals", "count"},
    {"core.entries_scanned", "count"},
    {"core.values_examined", "count"},
    {"core.pairs_tracked", "count"},
    {"core.early_stop_ratio", "ratio"},
    {"core.copy_graph_ms", "ms"},
    {"core.copying_pairs", "count"},
    {"snapshot.save_ms", "ms"},
    {"snapshot.file_mb", "MiB"},
    {"snapshot.load_ms", "ms"},
    {"snapshot.load_mapped_ms", "ms"},
    {"snapshot.rss_owned_mb", "MiB"},
    {"snapshot.rss_mapped_mb", "MiB"},
    {"serve.update_rtt_ms", "ms"},
    {"serve.update_overhead_ms", "ms"},
    {"serve.update_capacity_per_s", "1/s"},
    {"serve.query_rtt_ms", "ms"},
    {"serve.query_kb", "KiB"},
    {"serve.max_queue_depth", "count"},
    {"serve.gen_lag_ms", "ms"},
    {"op_ms_p90", "ms"},
    {"read_ms_p90", "ms"},
    {"unattributed_ms", "ms"},
    {"trace_overhead", "ratio"},
    {"host.mix_ms", "ms"},
    {"host.format_ms", "ms"},
};

// ---------------------------------------------------------------------
// Workloads.

enum class Path { kBatch, kFeed, kRestart, kServe };

struct Workload {
  const char* name;
  Path path;
  const char* world;  ///< datagen profile
  double scale;
  const char* detector;
  size_t threads;
};

constexpr Workload kWorkloads[] = {
    {"batch-book", Path::kBatch, "book-full", 0.2, "hybrid", 1},
    {"batch-stock", Path::kBatch, "stock-1day", 0.1, "hybrid", 2},
    {"feed-update", Path::kFeed, "book-full", 0.2, "index", 1},
    {"restart", Path::kRestart, "book-full", 0.2, "index", 1},
    {"serve-mixed", Path::kServe, "book-full", 0.05, "hybrid", 1},
};

/// Open-loop rates of serve-mixed, per connection.
constexpr double kUpdatesPerSecond = 4.0;
constexpr double kQueriesPerSecond = 50.0;

struct Config {
  const Workload* workload = nullptr;
  uint64_t seed = 7;
  double seconds = 15.0;
  bool quick = false;
  std::string daemon = CDBENCH_DAEMON;

  double scale() const { return workload->scale * (quick ? 0.25 : 1.0); }
  /// Set-up repeats at least setup_reps() times and for setup_seconds();
  /// setup_s is the median. A short set-up gets more repetitions:
  /// batch-stock's, whose run is at executor width 2, varies by ±20%.
  int setup_reps() const { return quick ? 1 : 7; }
  double setup_seconds() const { return quick ? 0.0 : 3.0; }
  /// Repetitions of each layer probe (medians are kept).
  int reps() const { return quick ? 1 : 3; }
  /// Feed batches each update probe applies.
  int probe_updates() const { return quick ? 2 : 8; }
  /// The delta stream's seed, apart from the world generator's.
  uint64_t feed_seed() const { return seed * 0x9e3779b97f4a7c15ULL + 1; }
};

/// Seed of the world generator, the same for every --seed: generated
/// worlds of one profile and scale differ by ±15% in tracked pairs from
/// seed to seed, which would swamp the regressions the bounds exist to
/// catch. --seed varies what costs the same on every world: the order
/// sources and items enter the data set (so their ids), and the feed.
constexpr uint64_t kWorldSeed = 7;

/// The observable half of a generated world — all a workload uses.
struct BenchWorld {
  Dataset data;
  double suggested_n = 50.0;
};

SessionOptions OptionsFor(const Workload& w, const BenchWorld& world) {
  SessionOptions options;
  options.detector = w.detector;
  options.threads = w.threads;
  options.alpha = 0.1;
  options.s = 0.8;
  options.n = world.suggested_n;
  options.max_rounds = 8;
  options.epsilon = 1e-4;
  options.online_updates = w.path != Path::kBatch;
  return options;
}

/// `data` with sources and items registered in a seeded random order.
Dataset Permuted(const Dataset& data, uint64_t seed) {
  Rng rng(seed);
  std::vector<SourceId> sources(data.num_sources());
  std::vector<ItemId> items(data.num_items());
  for (size_t i = 0; i < sources.size(); ++i) sources[i] = i;
  for (size_t i = 0; i < items.size(); ++i) items[i] = i;
  rng.Shuffle(&sources);
  rng.Shuffle(&items);
  DatasetBuilder builder;
  for (SourceId s : sources) builder.AddSource(data.source_name(s));
  for (ItemId d : items) builder.AddItem(data.item_name(d));
  for (SourceId s : sources) {
    const auto obs_items = data.items_of(s);
    const auto obs_slots = data.slots_of(s);
    for (size_t i = 0; i < obs_items.size(); ++i) {
      builder.Add(data.source_name(s), data.item_name(obs_items[i]),
                  data.slot_value(obs_slots[i]));
    }
  }
  auto built = builder.Build();
  CD_CHECK_OK(built.status());
  return std::move(built).value();
}

/// The workload's world. serve-mixed's daemon generates its own from
/// the `open` spec, so that one stays in generator order.
BenchWorld MakeWorldOrDie(const Config& c) {
  auto world = MakeWorldByName(c.workload->world, c.scale(), kWorldSeed);
  CD_CHECK_OK(world.status());
  BenchWorld out;
  out.suggested_n = world->suggested_n;
  out.data = c.workload->path == Path::kServe
                 ? std::move(world->data)
                 : Permuted(world->data, c.seed);
  return out;
}

// ---------------------------------------------------------------------
// Outcome accounting.

struct Result {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  bool correct = true;
  std::map<std::string, double> metrics;

  /// One attempted operation.
  void Call(const Status& status, std::string_view what) {
    ++attempted;
    if (status.ok()) return;
    ++failed;
    std::fprintf(stderr, "cdbench: %.*s failed: %s\n",
                 static_cast<int>(what.size()), what.data(),
                 status.ToString().c_str());
  }
  /// One correctness check against a reference.
  void Check(bool ok, std::string_view what) {
    ++attempted;
    if (ok) return;
    ++failed;
    correct = false;
    std::fprintf(stderr, "cdbench: MISMATCH: %.*s\n",
                 static_cast<int>(what.size()), what.data());
  }
  void Set(const std::string& name, double value) { metrics[name] = value; }
  bool ok() const { return correct && failed == 0; }
};

// ---------------------------------------------------------------------
// Bench-side spans.

/// Spans recorded around calls into the engine's public functions:
/// kept in memory, written once at exit as Chrome trace-event JSON.
/// Thread-safe (serve clients record from several threads).
class Tracer {
 public:
  struct Span {
    std::string name;
    int id = -1;
    int parent = -1;  ///< enclosing span on the same thread, -1 at top
    int tid = 0;
    int64_t begin_ns = 0;
    int64_t end_ns = 0;
    double seconds() const {
      return static_cast<double>(end_ns - begin_ns) * 1e-9;
    }
  };

  int64_t NowNs() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now() - origin_)
        .count();
  }
  int NextId() { return next_id_.fetch_add(1); }
  void Record(Span span) {
    MutexLock lock(mu_);
    spans_.push_back(std::move(span));
  }
  std::vector<Span> Spans() const {
    MutexLock lock(mu_);
    return spans_;
  }

 private:
  const Clock::time_point origin_ = Clock::now();
  std::atomic<int> next_id_{0};
  mutable Mutex mu_;
  std::vector<Span> spans_ CD_GUARDED_BY(mu_);
};

thread_local int t_open_span = -1;  // innermost open span of this thread

int ThreadId() {
  static std::atomic<int> next{1};
  thread_local const int id = next.fetch_add(1);
  return id;
}

/// RAII span; a no-op without a tracer, so the untraced pass runs the
/// same code.
class Scope {
 public:
  Scope(Tracer* tracer, const char* name) : tracer_(tracer) {
    if (tracer_ == nullptr) return;
    span_.name = name;
    span_.id = tracer_->NextId();
    span_.parent = t_open_span;
    span_.tid = ThreadId();
    t_open_span = span_.id;
    span_.begin_ns = tracer_->NowNs();
  }
  ~Scope() {
    if (tracer_ == nullptr) return;
    span_.end_ns = tracer_->NowNs();
    t_open_span = span_.parent;
    tracer_->Record(std::move(span_));
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

  int id() const { return span_.id; }

 private:
  Tracer* tracer_;
  Tracer::Span span_;
};

/// Runs `fn` inside a span named `name` and returns its wall seconds.
template <typename Fn>
double Timed(Tracer* tracer, const char* name, Fn&& fn) {
  Scope scope(tracer, name);
  const auto begin = Clock::now();
  fn();
  return SecondsSince(begin);
}

/// The finished spans of a run, indexed for the layer arithmetic.
class SpanIndex {
 public:
  explicit SpanIndex(std::vector<Tracer::Span> spans)
      : spans_(std::move(spans)) {
    for (size_t i = 0; i < spans_.size(); ++i) by_id_[spans_[i].id] = i;
  }
  double Seconds(int id) const {
    auto it = by_id_.find(id);
    return it == by_id_.end() ? 0.0 : spans_[it->second].seconds();
  }
  /// Seconds covered by `id`'s direct children (named `name` if set).
  double ChildSeconds(int id, std::string_view name = {}) const {
    double total = 0.0;
    for (const Tracer::Span& s : spans_) {
      if (s.parent == id && (name.empty() || s.name == name)) {
        total += s.seconds();
      }
    }
    return total;
  }

 private:
  std::vector<Tracer::Span> spans_;
  std::map<int, size_t> by_id_;
};

/// "12.345" microseconds from integer nanoseconds, exact.
std::string Micros(int64_t ns) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%lld.%03lld",
                static_cast<long long>(ns / 1000),
                static_cast<long long>(ns % 1000));
  return buf;
}

Status WriteFile(const std::string& path, const std::string& text) {
  std::error_code ec;
  fs::create_directories(fs::path(path).parent_path(), ec);
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << text;
  out.close();
  if (!out) return Status::IOError("writing '" + path + "' failed");
  return Status::OK();
}

StatusOr<std::string> ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::IOError("cannot read '" + path + "'");
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

Status WriteTrace(const std::vector<Tracer::Span>& spans,
                  const std::string& path) {
  JsonValue events = JsonValue::Array();
  for (const Tracer::Span& s : spans) {
    const std::string layer = s.name.substr(0, s.name.find('.'));
    events.Append(
        JsonValue::Object()
            .Set("name", JsonValue::Str(s.name))
            .Set("cat", JsonValue::Str(layer))
            .Set("ph", JsonValue::Str("X"))
            .Set("ts", JsonValue::NumberLiteral(Micros(s.begin_ns)))
            .Set("dur", JsonValue::NumberLiteral(
                            Micros(s.end_ns - s.begin_ns)))
            .Set("pid", JsonValue::Int64(getpid()))
            .Set("tid", JsonValue::Int64(s.tid))
            .Set("args", JsonValue::Object()
                             .Set("id", JsonValue::Int64(s.id))
                             .Set("parent", JsonValue::Int64(s.parent))));
  }
  return WriteFile(path, JsonValue::Object()
                             .Set("traceEvents", std::move(events))
                             .Set("displayTimeUnit", JsonValue::Str("ms"))
                             .Dump() +
                             "\n");
}

/// Re-reads a written trace and checks that it nests: every child span
/// lies inside its parent's interval, on the parent's thread.
Status CheckTraceNesting(const std::string& path) {
  auto text = ReadFile(path);
  if (!text.ok()) return text.status();
  auto doc = ParseJson(*text);
  if (!doc.ok()) return doc.status();
  const JsonValue* events = doc->Find("traceEvents");
  if (events == nullptr || !events->is_array()) {
    return Status::InvalidArgument(path + ": no traceEvents array");
  }
  struct Interval {
    double begin, end;
    int64_t tid, parent;
  };
  std::map<int64_t, Interval> by_id;
  for (const JsonValue& e : events->items()) {
    const JsonValue* args = e.Find("args");
    double ts = 0, dur = 0;
    int64_t id = 0, parent = 0, tid = 0;
    if (args == nullptr || !e.Find("ts")->AsDouble(&ts) ||
        !e.Find("dur")->AsDouble(&dur) || !e.Find("tid")->AsInt64(&tid) ||
        !args->Find("id")->AsInt64(&id) ||
        !args->Find("parent")->AsInt64(&parent)) {
      return Status::InvalidArgument(path + ": malformed trace event");
    }
    by_id[id] = {ts, ts + dur, tid, parent};
  }
  constexpr double kSlackUs = 1e-3;  // decimal rendering of ns
  for (const auto& [id, span] : by_id) {
    if (span.parent < 0) continue;
    auto parent = by_id.find(span.parent);
    if (parent == by_id.end() || parent->second.tid != span.tid ||
        span.begin + kSlackUs < parent->second.begin ||
        span.end > parent->second.end + kSlackUs) {
      return Status::Internal(path + ": span " + std::to_string(id) +
                              " is not inside its parent " +
                              std::to_string(span.parent));
    }
  }
  return Status::OK();
}

// ---------------------------------------------------------------------
// The feed: seeded update batches that never fail.

/// A seeded stream of feed batches against an evolving data set. Each
/// batch comes from one source and touches 10 distinct cells: 7
/// overwrites and 1 retraction of cells the source provides, and 2
/// adds of cells it does not — so Dataset::Apply never rejects one
/// (DatasetDelta::Validate refuses two ops on one cell). Addressed by
/// name only, so the stream stays valid whatever ids Apply assigns.
class FeedStream {
 public:
  FeedStream(const Dataset& data, uint64_t seed) : rng_(seed) {
    const size_t items = data.num_items();
    covered_.resize(data.num_sources());
    covered_bit_.assign(data.num_sources() * items, false);
    for (SourceId s = 0; s < data.num_sources(); ++s) {
      sources_.emplace_back(data.source_name(s));
      for (ItemId d : data.items_of(s)) {
        covered_[s].push_back(d);
        covered_bit_[s * items + d] = true;
      }
    }
    values_.resize(items);
    for (ItemId d = 0; d < items; ++d) {
      items_.emplace_back(data.item_name(d));
      for (SlotId v = data.slot_begin(d); v < data.slot_end(d); ++v) {
        values_[d].emplace_back(data.slot_value(v));
      }
      // Feed-only values, so an overwrite of a single-valued item
      // usually changes it.
      for (int k = 0; k < 3; ++k) {
        values_[d].push_back("feed-" + std::to_string(k));
      }
    }
  }

  DatasetDelta Next() {
    constexpr size_t kCovered = 8;  // 7 overwrites + 1 retraction
    const size_t items = items_.size();
    size_t s = 0;
    for (int tries = 0;; ++tries) {
      s = rng_.NextBelow(sources_.size());
      if (covered_[s].size() >= kCovered && covered_[s].size() + 2 < items) {
        break;
      }
      if (tries == 100000) {
        CD_CHECK_OK(Status::FailedPrecondition(
            "no source can take a feed batch"));
      }
    }
    std::vector<uint64_t> picks =
        rng_.SampleWithoutReplacement(covered_[s].size(), kCovered);
    DatasetDelta delta;
    for (size_t i = 0; i + 1 < kCovered; ++i) {
      const ItemId d = covered_[s][picks[i]];
      delta.Set(sources_[s], items_[d], Value(d));
    }
    for (int k = 0; k < 2; ++k) {
      ItemId d = 0;
      do {
        d = static_cast<ItemId>(rng_.NextBelow(items));
      } while (covered_bit_[s * items + d]);
      delta.Set(sources_[s], items_[d], Value(d));
      covered_[s].push_back(d);
      covered_bit_[s * items + d] = true;
    }
    // Retract last: the adds above must not pick the retracted cell.
    const size_t pos = picks[kCovered - 1];
    const ItemId gone = covered_[s][pos];
    delta.Retract(sources_[s], items_[gone]);
    covered_bit_[s * items + gone] = false;
    covered_[s][pos] = covered_[s].back();
    covered_[s].pop_back();
    return delta;
  }

 private:
  const std::string& Value(ItemId d) {
    return values_[d][rng_.NextBelow(values_[d].size())];
  }

  Rng rng_;
  std::vector<std::string> sources_;
  std::vector<std::string> items_;
  std::vector<std::vector<ItemId>> covered_;  ///< items per source
  std::vector<bool> covered_bit_;             ///< source-major bitmap
  std::vector<std::vector<std::string>> values_;  ///< candidates per item
};

// ---------------------------------------------------------------------
// The daemon and its wire client.

/// copydetectd as a child process. It dies with cdbench (PDEATHSIG), is
/// stopped with SIGTERM (the daemon's clean drain) and always reaped.
class Daemon {
 public:
  Daemon() = default;
  ~Daemon() { Stop(); }
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  Status Spawn(const std::string& binary, const std::string& socket) {
    const std::string socket_flag = "--socket=" + socket;
    const pid_t parent = getpid();
    pid_ = fork();
    if (pid_ < 0) return Status::IOError("fork failed");
    if (pid_ == 0) {
      prctl(PR_SET_PDEATHSIG, SIGKILL);
      if (getppid() != parent) _exit(1);
      dup2(STDERR_FILENO, STDOUT_FILENO);  // stdout carries the result
      execl(binary.c_str(), binary.c_str(), socket_flag.c_str(),
            static_cast<char*>(nullptr));
      _exit(127);
    }
    return Status::OK();
  }

  /// SIGTERM, wait (SIGKILL after 20 s) and reap. Returns the daemon's
  /// peak resident set in MiB, 0 when none was running.
  double Stop() {
    if (pid_ <= 0) return 0.0;
    kill(pid_, SIGTERM);
    rusage usage{};
    int status = 0;
    const auto deadline = Clock::now() + std::chrono::seconds(20);
    while (wait4(pid_, &status, WNOHANG, &usage) == 0) {
      if (Clock::now() > deadline) {
        kill(pid_, SIGKILL);
        wait4(pid_, &status, 0, &usage);
        break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    pid_ = -1;
    return static_cast<double>(usage.ru_maxrss) * 1024.0 / kMiB;
  }

  bool Running() const {
    return pid_ > 0 && waitpid(pid_, nullptr, WNOHANG) == 0;
  }

  /// CPU seconds the daemon's live threads have run, summed over
  /// /proc/<pid>/task/*/schedstat (nanoseconds; /proc/<pid>/stat counts
  /// in 10 ms ticks, too coarse for one round trip).
  double CpuSeconds() const {
    double total = 0.0;
    std::error_code ec;
    for (const auto& task : fs::directory_iterator(
             "/proc/" + std::to_string(pid_) + "/task", ec)) {
      std::ifstream in(task.path() / "schedstat");
      uint64_t ns = 0;
      if (in >> ns) total += static_cast<double>(ns) * 1e-9;
    }
    return total;
  }

 private:
  pid_t pid_ = -1;
};

/// One client connection speaking the daemon's ndjson wire protocol.
class Connection {
 public:
  /// Connects, retrying while the daemon starts (up to 30 s).
  static StatusOr<Connection> Open(const std::string& socket,
                                   const Daemon& daemon) {
    sockaddr_un addr{};
    if (socket.size() >= sizeof(addr.sun_path)) {
      return Status::InvalidArgument("socket path too long: " + socket);
    }
    addr.sun_family = AF_UNIX;
    std::memcpy(addr.sun_path, socket.c_str(), socket.size() + 1);
    const auto deadline = Clock::now() + std::chrono::seconds(30);
    for (;;) {
      const int fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
      if (fd < 0) return Status::IOError("socket() failed");
      if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                    sizeof(addr)) == 0) {
        return Connection(fd);
      }
      ::close(fd);
      if (!daemon.Running() || Clock::now() > deadline) {
        return Status::IOError("cannot connect to copydetectd at " +
                               socket);
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  }

  Connection(Connection&& other) noexcept
      : fd_(std::exchange(other.fd_, -1)),
        buffer_(std::move(other.buffer_)) {}
  Connection& operator=(Connection&&) = delete;
  Connection(const Connection&) = delete;
  ~Connection() {
    if (fd_ >= 0) ::close(fd_);
  }

  /// Sends one request line and reads its response line.
  StatusOr<std::string> Call(std::string_view request) {
    std::string line(request);
    line += '\n';
    std::string_view rest = line;
    while (!rest.empty()) {
      const ssize_t n = ::send(fd_, rest.data(), rest.size(), MSG_NOSIGNAL);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) return Status::IOError("send to copydetectd failed");
      rest.remove_prefix(static_cast<size_t>(n));
    }
    size_t scanned = 0;
    for (;;) {
      const size_t newline = buffer_.find('\n', scanned);
      if (newline != std::string::npos) {
        std::string response = buffer_.substr(0, newline);
        buffer_.erase(0, newline + 1);
        return response;
      }
      scanned = buffer_.size();
      char chunk[1 << 16];
      const ssize_t n = ::read(fd_, chunk, sizeof(chunk));
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) return Status::IOError("copydetectd closed the connection");
      buffer_.append(chunk, static_cast<size_t>(n));
    }
  }

 private:
  explicit Connection(int fd) : fd_(fd) {}

  int fd_ = -1;
  std::string buffer_;  ///< bytes read past the last response
};

/// Calls `request`, turning a transport error or {"ok":false} into a
/// Status; the response line otherwise.
StatusOr<std::string> CallOk(Connection& conn, std::string_view request) {
  auto response = conn.Call(request);
  if (!response.ok()) return response;
  if (response->rfind("{\"ok\":true", 0) != 0) {
    return Status::Internal(*response);
  }
  return response;
}

constexpr const char* kSession = "bench";

/// `open` with every session option spelled out, so the daemon and the
/// in-process replay run the identical configuration.
std::string OpenRequest(const Config& c, const SessionOptions& o) {
  return JsonValue::Object()
      .Set("verb", JsonValue::Str("open"))
      .Set("session", JsonValue::Str(kSession))
      .Set("data", JsonValue::Object()
                       .Set("generate", JsonValue::Str(c.workload->world))
                       .Set("scale", JsonValue::Double(c.scale()))
                       .Set("seed", JsonValue::Uint64(kWorldSeed)))
      .Set("options",
           JsonValue::Object()
               .Set("detector", JsonValue::Str(o.detector))
               .Set("threads", JsonValue::Uint64(o.threads))
               .Set("alpha", JsonValue::Double(o.alpha))
               .Set("s", JsonValue::Double(o.s))
               .Set("n", JsonValue::Double(o.n))
               .Set("max_rounds", JsonValue::Int64(o.max_rounds))
               .Set("epsilon", JsonValue::Double(o.epsilon))
               .Set("damping", JsonValue::Double(o.damping))
               .Set("update_rebuild_fraction",
                    JsonValue::Double(o.update_rebuild_fraction)))
      .Dump();
}

/// `update` carrying `delta`; `async` returns once the batch is queued.
std::string UpdateRequest(const DatasetDelta& delta, bool async = false) {
  JsonValue set = JsonValue::Array();
  JsonValue retract = JsonValue::Array();
  for (const DatasetDelta::Op& op : delta.ops()) {
    JsonValue tuple = JsonValue::Array()
                          .Append(JsonValue::Str(op.source))
                          .Append(JsonValue::Str(op.item));
    if (op.retract) {
      retract.Append(std::move(tuple));
    } else {
      set.Append(std::move(tuple.Append(JsonValue::Str(op.value))));
    }
  }
  return JsonValue::Object()
      .Set("verb", JsonValue::Str("update"))
      .Set("session", JsonValue::Str(kSession))
      .Set("set", std::move(set))
      .Set("retract", std::move(retract))
      .Set("async", JsonValue::Bool(async))
      .Dump();
}

std::string VerbRequest(const char* verb) {
  return JsonValue::Object()
      .Set("verb", JsonValue::Str(verb))
      .Set("session", JsonValue::Str(kSession))
      .Dump();
}

/// The session's entry of a `stats` response.
StatusOr<JsonValue> SessionStats(Connection& conn) {
  auto response = CallOk(conn, VerbRequest("stats"));
  if (!response.ok()) return response.status();
  auto doc = ParseJson(*response);
  if (!doc.ok()) return doc.status();
  const JsonValue* sessions = doc->Find("sessions");
  if (sessions == nullptr || sessions->items().size() != 1) {
    return Status::Internal("stats: expected one session");
  }
  return sessions->items()[0];
}

/// Paced queries on one connection (open loop): query i is due at
/// `start + offset + i / rate` and its latency counts from that due
/// time, so a stall also charges the queries queued behind it.
struct QueryLog {
  std::vector<double> latency_s;
  std::vector<double> lateness_s;  ///< send time minus due time
  uint64_t sent = 0;
  uint64_t failed = 0;
};

/// Clock::time_point `seconds` after `t`.
Clock::time_point After(Clock::time_point t, double seconds) {
  return t + std::chrono::duration_cast<Clock::duration>(
                 std::chrono::duration<double>(seconds));
}

void PacedQueries(std::stop_token stop, Connection* conn,
                  Clock::time_point start, double offset, double rate,
                  Tracer* tracer, QueryLog* log) {
  for (uint64_t i = 0;; ++i) {
    const auto due = After(start, offset + static_cast<double>(i) / rate);
    std::this_thread::sleep_until(due);
    if (stop.stop_requested()) return;
    log->lateness_s.push_back(SecondsSince(due));
    ++log->sent;
    Scope span(tracer, "serve.query");
    if (!CallOk(*conn, VerbRequest("query")).ok()) {
      ++log->failed;
      continue;
    }
    log->latency_s.push_back(SecondsSince(due));
  }
}

// ---------------------------------------------------------------------
// Layer probes: the traced pass's per-layer numbers, measured on the
// workload's own world and options so every workload reports every
// layer metric.

struct ProbeContext {
  const Config& config;
  const BenchWorld& world;
  SessionOptions options;
  Tracer* tracer;
  Result* result;
};

/// One Session::Create + run to completion. Traced, the run goes
/// through Start/Step so each fusion round gets its own span (Run is
/// that loop driven to completion, bit-identically).
StatusOr<Report> CreateAndRun(const SessionOptions& options,
                              const Dataset& data, Tracer* tracer,
                              int* op_span = nullptr) {
  Scope op(tracer, "op.run");
  if (op_span != nullptr) *op_span = op.id();
  std::optional<StatusOr<Session>> session;
  {
    Scope span(tracer, "api.create");
    session.emplace(Session::Create(options));
  }
  if (!session->ok()) return session->status();
  Session& s = **session;
  if (tracer == nullptr) return s.Run(data);
  {
    Scope span(tracer, "api.start");
    CD_RETURN_IF_ERROR(s.Start(data));
  }
  for (;;) {
    Scope span(tracer, "fusion.step");
    StatusOr<bool> stepped = s.Step();
    if (!stepped.ok()) return stepped.status();
    if (!*stepped) break;
  }
  Scope span(tracer, "api.report");
  return s.report();
}

/// `report` as a run at executor width `threads` renders it: results are
/// bit-identical at every width, only the recorded width differs.
Report AtWidth(Report report, size_t threads) {
  report.threads = threads;
  return report;
}

void ProbeColdRun(const ProbeContext& p) {
  Result& r = *p.result;
  std::vector<double> create, step, detect, detect_cpu, fuse, graph, render;
  std::vector<double> serial_cpu;
  Report last;
  size_t json_bytes = 0;
  for (int rep = 0; rep < p.config.reps(); ++rep) {
    int op = -1;
    auto report = CreateAndRun(p.options, p.world.data, p.tracer, &op);
    r.Call(report.status(), "probe: cold run");
    if (!report.ok()) return;
    const SpanIndex spans(p.tracer->Spans());
    create.push_back(spans.ChildSeconds(op, "api.create"));
    step.push_back(spans.ChildSeconds(op, "fusion.step"));
    double d = 0, dc = 0, f = 0;
    for (const RoundTrace& t : report->fusion.trace) {
      d += t.detect_seconds;
      dc += t.detect_cpu_seconds;
      f += t.fusion_seconds;
    }
    detect.push_back(d);
    detect_cpu.push_back(dc);
    fuse.push_back(f);
    graph.push_back(Timed(p.tracer, "core.copy_graph", [&] {
      r.Check(AnalyzeCopyGraph(report->copies()).NumPairs() ==
                  report->graph.NumPairs(),
              "probe: copy graph is a function of the copies");
    }));
    std::string json;
    render.push_back(Timed(p.tracer, "api.render",
                           [&] { json = report->ToJson(p.world.data); }));
    json_bytes = json.size();
    last = std::move(*report);

    SessionOptions serial = p.options;
    serial.threads = 1;
    auto one = CreateAndRun(serial, p.world.data, nullptr);
    r.Call(one.status(), "probe: threads=1 run");
    if (!one.ok()) return;
    double cpu = 0;
    for (const RoundTrace& t : one->fusion.trace) cpu += t.detect_cpu_seconds;
    serial_cpu.push_back(cpu);
    r.Check(AtWidth(*one, p.options.threads).ToJson(p.world.data) == json,
            "probe: threads=1 report equals the workload's width");
  }
  const Counters& k = last.counters;
  r.Set("api.create_ms", Median(create) * 1e3);
  r.Set("fusion.rounds", last.rounds());
  r.Set("fusion.step_ms", Median(step) * 1e3);
  r.Set("fusion.fuse_ms", Median(fuse) * 1e3);
  r.Set("fusion.observer_ms",
        (Median(step) - Median(detect) - Median(fuse)) * 1e3);
  r.Set("core.detect_ms", Median(detect) * 1e3);
  r.Set("core.detect_cpu_ms", Median(detect_cpu) * 1e3);
  r.Set("core.scan_cpu_ratio", Median(detect_cpu) / Median(serial_cpu));
  r.Set("core.score_evals", static_cast<double>(k.score_evals));
  r.Set("core.bound_evals", static_cast<double>(k.bound_evals));
  r.Set("core.finalize_evals", static_cast<double>(k.finalize_evals));
  r.Set("core.entries_scanned", static_cast<double>(k.entries_scanned));
  r.Set("core.values_examined", static_cast<double>(k.values_examined));
  r.Set("core.pairs_tracked", static_cast<double>(k.pairs_tracked));
  r.Set("core.early_stop_ratio",
        k.pairs_tracked == 0
            ? 0.0
            : static_cast<double>(k.early_copy + k.early_nocopy) /
                  static_cast<double>(k.pairs_tracked));
  r.Set("core.copy_graph_ms", Median(graph) * 1e3);
  r.Set("core.copying_pairs", static_cast<double>(last.graph.NumPairs()));
  r.Set("api.render_ms", Median(render) * 1e3);
  r.Set("api.render_kb", static_cast<double>(json_bytes) / 1024.0);
}

/// Feed batches through Session::Update, with Dataset::Apply of the same
/// delta timed beside it; then the final snapshot run cold. Returns the
/// updated session for the snapshot probe.
std::optional<Session> ProbeUpdates(const ProbeContext& p) {
  Result& r = *p.result;
  SessionOptions online = p.options;
  online.online_updates = true;
  auto created = Session::Create(online);
  r.Call(created.status(), "probe: create online session");
  if (!created.ok()) return std::nullopt;
  Session session = std::move(created).value();
  r.Call(session.Run(p.world.data).status(), "probe: initial run");

  FeedStream feed(p.world.data, p.config.feed_seed());
  std::vector<double> apply, maintain, rerun, touched, update;
  for (int i = 0; i < p.config.probe_updates(); ++i) {
    const DatasetDelta delta = feed.Next();
    // Twice, keeping the second: the first pulls the snapshot into the
    // cache, where the update's own Apply finds it.
    double apply_s = 0.0;
    for (int warm = 0; warm < 2; ++warm) {
      apply_s = Timed(p.tracer, "model.apply", [&] {
        r.Call(session.current_data()->Apply(delta).status(),
               "probe: Dataset::Apply");
      });
    }
    Status status;
    update.push_back(Timed(p.tracer, "api.update",
                           [&] { status = session.Update(delta); }));
    r.Call(status, "probe: Session::Update");
    const UpdateStats& stats = session.last_update_stats();
    apply.push_back(apply_s);
    maintain.push_back(stats.apply_seconds - apply_s);
    rerun.push_back(stats.run_seconds);
    touched.push_back(static_cast<double>(stats.touched_items));
  }

  const Dataset rebuilt = RebuildFromScratch(*session.current_data());
  SessionOptions cold = p.options;
  cold.online_updates = false;
  std::optional<StatusOr<Report>> cold_report;
  const double cold_s = Timed(p.tracer, "op.cold_run", [&] {
    cold_report.emplace(CreateAndRun(cold, rebuilt, nullptr));
  });
  r.Call(cold_report->status(), "probe: cold run of the final snapshot");
  const Report& updated = session.report();
  if (cold_report->ok()) {
    r.Check((*cold_report)->ToJson(rebuilt) ==
                updated.ToJson(*session.current_data()),
            "probe: updated report equals a cold run");
    r.Set("api.incremental_ratio",
          static_cast<double>(updated.counters.Total()) /
              static_cast<double>(
                  std::max<uint64_t>(1, (*cold_report)->counters.Total())));
  }
  r.Set("model.apply_ms", Median(apply) * 1e3);
  r.Set("model.touched_items", Median(touched));
  r.Set("api.update_maintain_ms", Median(maintain) * 1e3);
  r.Set("api.update_rerun_ms", Median(rerun) * 1e3);
  r.Set("api.update_vs_cold", Median(update) / cold_s);
  return session;
}

/// The same feed batches through SessionRef::Update (queue, worker,
/// publish render) of an in-process SessionManager.
void ProbeManager(const ProbeContext& p) {
  Result& r = *p.result;
  auto manager = SessionManager::Start(SessionManagerOptions());
  r.Call(manager.status(), "probe: SessionManager::Start");
  if (!manager.ok()) return;
  auto ref = (*manager)->Open("probe", p.options, p.world.data);
  r.Call(ref.status(), "probe: SessionManager::Open");
  if (!ref.ok()) return;
  FeedStream feed(p.world.data, p.config.feed_seed());
  std::vector<double> update;
  for (int i = 0; i < p.config.probe_updates(); ++i) {
    const DatasetDelta delta = feed.Next();
    Status status;
    update.push_back(Timed(p.tracer, "api.manager_update",
                           [&] { status = ref->Update(delta); }));
    r.Call(status, "probe: SessionRef::Update");
  }
  (*manager)->Shutdown();
  r.Set("api.manager_update_ms", Median(update) * 1e3);
}

void ProbeSnapshot(const ProbeContext& p, Session& session) {
  Result& r = *p.result;
  const std::string path = "probe.cdsnap";
  std::vector<double> save, owned, mapped, rss_owned, rss_mapped;
  for (int rep = 0; rep < p.config.reps(); ++rep) {
    Status status;
    save.push_back(
        Timed(p.tracer, "api.save", [&] { status = session.Save(path); }));
    r.Call(status, "probe: Session::Save");
    for (LoadMode mode : {LoadMode::kMapped, LoadMode::kOwned}) {
      const bool is_mapped = mode == LoadMode::kMapped;
      malloc_trim(0);  // freed pages of the last load must not count
      const double before = ResidentMiB();
      std::optional<StatusOr<Session>> loaded;
      const double seconds = Timed(
          p.tracer, is_mapped ? "api.load_mapped" : "api.load",
          [&] { loaded.emplace(Session::Load(path, mode)); });
      r.Call(loaded->status(), "probe: Session::Load");
      (is_mapped ? mapped : owned).push_back(seconds);
      (is_mapped ? rss_mapped : rss_owned).push_back(ResidentMiB() - before);
    }
  }
  r.Set("snapshot.save_ms", Median(save) * 1e3);
  r.Set("snapshot.file_mb", static_cast<double>(fs::file_size(path)) / kMiB);
  r.Set("snapshot.load_ms", Median(owned) * 1e3);
  r.Set("snapshot.load_mapped_ms", Median(mapped) * 1e3);
  r.Set("snapshot.rss_owned_mb", Median(rss_owned));
  r.Set("snapshot.rss_mapped_mb", Median(rss_mapped));
  fs::remove(path);
}

/// Sends `count` feed batches as fire-and-forget updates, back to back,
/// then polls `stats` until the worker has applied them all. Returns
/// the applied batches per second; `max_depth` gets the deepest queue
/// seen.
StatusOr<double> UpdateBurst(Connection& conn, FeedStream& feed, int count,
                             uint64_t* max_depth) {
  auto before = SessionStats(conn);
  if (!before.ok()) return before.status();
  const uint64_t target = before->GetUint64("version", 0) + count;
  const auto begin = Clock::now();
  for (int i = 0; i < count; ++i) {
    auto sent = CallOk(conn, UpdateRequest(feed.Next(), /*async=*/true));
    if (!sent.ok()) return sent.status();
  }
  for (;;) {
    auto stats = SessionStats(conn);
    if (!stats.ok()) return stats.status();
    *max_depth = std::max(*max_depth, stats->GetUint64("queue_depth", 0));
    if (stats->GetUint64("version", 0) >= target) break;
    if (SecondsSince(begin) > 120.0) {
      return Status::Internal("update burst not applied within 120 s");
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  return count / SecondsSince(begin);
}

/// A copydetectd of its own on the workload's world. The probe's feed
/// batches go first as closed-loop `update` round trips, then as a
/// fire-and-forget burst that fills the session's queue, while a
/// second connection sends paced queries throughout.
void ProbeServe(const ProbeContext& p) {
  Result& r = *p.result;
  const std::string socket = "probe.sock";
  Daemon daemon;
  r.Call(daemon.Spawn(p.config.daemon, socket), "probe: spawn daemon");
  auto updates = Connection::Open(socket, daemon);
  r.Call(updates.status(), "probe: connect");
  if (!updates.ok()) return;
  auto queries = Connection::Open(socket, daemon);
  r.Call(queries.status(), "probe: connect");
  if (!queries.ok()) return;
  r.Call(CallOk(*updates, OpenRequest(p.config, p.options)).status(),
         "probe: open");

  constexpr double kProbeQueriesPerSecond = 20.0;
  QueryLog log;
  std::vector<double> rtt;
  uint64_t max_depth = 0;
  StatusOr<double> capacity = 0.0;
  {
    // Stopped and joined when the scope ends.
    std::jthread reader([&](std::stop_token stop) {
      PacedQueries(stop, &*queries, Clock::now(), 0.0,
                   kProbeQueriesPerSecond, p.tracer, &log);
    });
    FeedStream feed(p.world.data, p.config.feed_seed());
    for (int i = 0; i < p.config.probe_updates(); ++i) {
      const std::string request = UpdateRequest(feed.Next());
      Status status;
      rtt.push_back(Timed(p.tracer, "serve.update", [&] {
        status = CallOk(*updates, request).status();
      }));
      r.Call(status, "probe: update round trip");
    }
    {
      Scope span(p.tracer, "serve.update_burst");
      capacity = UpdateBurst(*updates, feed, p.config.probe_updates(),
                             &max_depth);
    }
    r.Call(capacity.status(), "probe: update burst");
  }
  r.attempted += log.sent;
  r.failed += log.failed;
  auto last = CallOk(*updates, VerbRequest("query"));
  r.Call(last.status(), "probe: query");
  daemon.Stop();

  const double manager_ms = r.metrics["api.manager_update_ms"];
  r.Set("serve.update_rtt_ms", Median(rtt) * 1e3);
  r.Set("serve.update_overhead_ms", Median(rtt) * 1e3 - manager_ms);
  r.Set("serve.update_capacity_per_s", capacity.ok() ? *capacity : 0.0);
  r.Set("serve.query_rtt_ms", Median(log.latency_s) * 1e3);
  r.Set("serve.query_kb",
        last.ok() ? static_cast<double>(last->size()) / 1024.0 : 0.0);
  r.Set("serve.max_queue_depth", static_cast<double>(max_depth));
  r.Set("serve.gen_lag_ms", Quantile(log.lateness_s, 0.99) * 1e3);
}

void RunProbes(const ProbeContext& p) {
  ProbeColdRun(p);
  std::optional<Session> updated = ProbeUpdates(p);
  if (updated.has_value()) ProbeSnapshot(p, *updated);
  updated.reset();
  ProbeManager(p);
  ProbeServe(p);
}

// ---------------------------------------------------------------------
// Closed-loop workloads: batch-*, feed-update, restart.

/// What one closed-loop operation measured.
struct OpSample {
  double op_s = 0.0;
  double cpu_s = 0.0;
  std::vector<double> read_s;  ///< renders of the op's result
  /// Stage seconds the API reports inside the op (UpdateStats), which
  /// count as attributed next to the op's child spans.
  double api_stage_s = 0.0;
  int span = -1;  ///< the op's span when traced
  HostReference::Sample host;  ///< timed right after the op and its read
};

class ClosedLoopWorkload {
 public:
  explicit ClosedLoopWorkload(const Config& c) : c_(c) {}
  virtual ~ClosedLoopWorkload() = default;
  ClosedLoopWorkload(const ClosedLoopWorkload&) = delete;
  ClosedLoopWorkload& operator=(const ClosedLoopWorkload&) = delete;

  /// Builds the workload's state from scratch; timed as setup_s.
  virtual void Setup() = 0;
  /// One operation, then the read of its result.
  virtual OpSample Op(Tracer* tracer, Result* r) = 0;
  /// End-of-run correctness checks.
  virtual void Finish(Result*) {}

  const BenchWorld& world() const { return world_; }
  const SessionOptions& options() const { return options_; }

 protected:
  /// A fresh world and its options: where every Setup starts.
  void MakeWorld() {
    world_ = MakeWorldOrDie(c_);
    options_ = OptionsFor(*c_.workload, world_);
  }

  const Config& c_;
  BenchWorld world_;
  SessionOptions options_;
};

/// The one-shot path: Create + Run, then the render a CLI user pays to
/// see the report. Every report must equal the first run's.
class BatchWorkload : public ClosedLoopWorkload {
 public:
  using ClosedLoopWorkload::ClosedLoopWorkload;

  void Setup() override {
    MakeWorld();
    auto report = CreateAndRun(options_, world_.data, nullptr);
    CD_CHECK_OK(report.status());
    reference_ = report->ToJson(world_.data);
  }

  OpSample Op(Tracer* tracer, Result* r) override {
    OpSample s;
    const double cpu = ProcessCpuSeconds();
    const auto begin = Clock::now();
    auto report = CreateAndRun(options_, world_.data, tracer, &s.span);
    s.op_s = SecondsSince(begin);
    s.cpu_s = ProcessCpuSeconds() - cpu;
    r->Call(report.status(), "Session::Create + Run");
    if (!report.ok()) return s;
    std::string json;
    s.read_s.push_back(Timed(tracer, "api.render",
                             [&] { json = report->ToJson(world_.data); }));
    r->Check(json == reference_, "report equals the first run's");
    return s;
  }

  void Finish(Result* r) override {
    if (options_.threads == 1) return;
    SessionOptions serial = options_;
    serial.threads = 1;
    auto report = CreateAndRun(serial, world_.data, nullptr);
    r->Call(report.status(), "threads=1 run");
    if (report.ok()) {
      r->Check(AtWidth(*report, options_.threads).ToJson(world_.data) ==
                   reference_,
               "report equals the threads=1 run's");
    }
  }

 private:
  std::string reference_;
};

/// The online-maintenance path: one index session fed 10-cell batches.
/// The read renders the refreshed report, outside the timed update.
class FeedWorkload : public ClosedLoopWorkload {
 public:
  using ClosedLoopWorkload::ClosedLoopWorkload;

  void Setup() override {
    MakeWorld();
    auto session = Session::Create(options_);
    CD_CHECK_OK(session.status());
    CD_CHECK_OK(session->Run(world_.data).status());
    session_.emplace(std::move(session).value());
    feed_.emplace(world_.data, c_.feed_seed());
  }

  OpSample Op(Tracer* tracer, Result* r) override {
    const DatasetDelta delta = feed_->Next();
    OpSample s;
    Status status;
    const double cpu = ProcessCpuSeconds();
    {
      Scope op(tracer, "api.update");
      s.span = op.id();
      const auto begin = Clock::now();
      status = session_->Update(delta);
      s.op_s = SecondsSince(begin);
    }
    s.cpu_s = ProcessCpuSeconds() - cpu;
    r->Call(status, "Session::Update");
    const UpdateStats& stats = session_->last_update_stats();
    s.api_stage_s = stats.apply_seconds + stats.run_seconds;
    s.read_s.push_back(Timed(tracer, "api.render", [&] {
      session_->report().ToJson(*session_->current_data());
    }));
    return s;
  }

  void Finish(Result* r) override {
    const Dataset rebuilt = RebuildFromScratch(*session_->current_data());
    SessionOptions cold = options_;
    cold.online_updates = false;
    auto report = CreateAndRun(cold, rebuilt, nullptr);
    r->Call(report.status(), "cold run of the final snapshot");
    if (report.ok()) {
      r->Check(report->ToJson(rebuilt) ==
                   session_->report().ToJson(*session_->current_data()),
               "updated report equals a cold run of its snapshot");
    }
  }

 private:
  std::optional<Session> session_;
  std::optional<FeedStream> feed_;
};

/// Restart: a saved online index session loaded owned, then mapped. The
/// file sits in the page cache, so this measures decoding, validation
/// and rebinding, not the disk.
class RestartWorkload : public ClosedLoopWorkload {
 public:
  using ClosedLoopWorkload::ClosedLoopWorkload;

  void Setup() override {
    MakeWorld();
    auto session = Session::Create(options_);
    CD_CHECK_OK(session.status());
    CD_CHECK_OK(session->Run(world_.data).status());
    CD_CHECK_OK(session->Save(path_));
    reference_ = session->report().ToJson(*session->current_data());
  }

  OpSample Op(Tracer* tracer, Result* r) override {
    OpSample s;
    std::optional<StatusOr<Session>> owned, mapped;
    const double cpu = ProcessCpuSeconds();
    const auto begin = Clock::now();
    {
      Scope op(tracer, "op.restart");
      s.span = op.id();
      {
        Scope span(tracer, "api.load");
        owned.emplace(Session::Load(path_, LoadMode::kOwned));
      }
      Scope span(tracer, "api.load_mapped");
      mapped.emplace(Session::Load(path_, LoadMode::kMapped));
    }
    s.op_s = SecondsSince(begin);
    s.cpu_s = ProcessCpuSeconds() - cpu;
    r->Call(owned->status(), "Session::Load owned");
    r->Call(mapped->status(), "Session::Load mapped");
    // A render costs several loads, so each cycle renders one of the
    // two, alternating: both modes are still checked all run long.
    StatusOr<Session>& loaded = (cycle_++ % 2 == 0) ? *owned : *mapped;
    if (!loaded.ok()) return s;
    std::string json;
    s.read_s.push_back(Timed(tracer, "api.render", [&] {
      json = loaded->report().ToJson(*loaded->current_data());
    }));
    r->Check(json == reference_, "loaded report equals the saved one");
    return s;
  }

 private:
  const std::string path_ = "restart.cdsnap";
  std::string reference_;
  uint64_t cycle_ = 0;
};

template <typename Fn>
double MedianSetupSeconds(const Config& c, HostReference& host, Fn&& setup) {
  std::vector<double> seconds;
  const auto start = Clock::now();
  while (seconds.size() < static_cast<size_t>(c.setup_reps()) ||
         SecondsSince(start) < c.setup_seconds()) {
    const auto begin = Clock::now();
    setup();
    const double raw = SecondsSince(begin);
    seconds.push_back(host.Measure().Op(raw));
  }
  return Median(seconds);
}

/// Runs `op` until `seconds` have passed (and at least a few times),
/// timing the host reference after each.
template <typename Op>
std::vector<OpSample> Loop(double seconds, HostReference& host, Op&& op) {
  constexpr size_t kMinOps = 5;
  std::vector<OpSample> samples;
  const auto begin = Clock::now();
  while (samples.size() < kMinOps || SecondsSince(begin) < seconds) {
    samples.push_back(op());
    samples.back().host = host.Measure();
  }
  return samples;
}

/// A run's samples in milliseconds, as the idle reference host takes
/// them, and the reference times measured beside them. Reads stay as
/// measured unless `scale_reads`.
struct Columns {
  std::vector<double> op, cpu, read;
  std::vector<double> mix, format;
};

Columns Split(const std::vector<OpSample>& samples, bool scale_reads = true) {
  Columns c;
  for (const OpSample& s : samples) {
    c.op.push_back(s.host.Op(s.op_s) * 1e3);
    c.cpu.push_back(s.host.Op(s.cpu_s) * 1e3);
    for (double read : s.read_s) {
      c.read.push_back((scale_reads ? s.host.Read(read) : read) * 1e3);
    }
    c.mix.push_back(s.host.mix_s * 1e3);
    c.format.push_back(s.host.format_s * 1e3);
  }
  return c;
}

/// The untraced metrics every workload reports from its samples.
void SetTimes(const Columns& cols, Result* r) {
  r->Set("op_ms", Median(cols.op));
  r->Set("op_cpu_ms", Median(cols.cpu));
  r->Set("read_ms", Median(cols.read));
  r->Set("op_ms_p90", Quantile(cols.op, 0.9));
  r->Set("read_ms_p90", Quantile(cols.read, 0.9));
  r->Set("host.mix_ms", Median(cols.mix));
  r->Set("host.format_ms", Median(cols.format));
}

void RunClosedLoop(const Config& c, ClosedLoopWorkload& w, Result* r,
                   Tracer* tracer) {
  HostReference host;
  r->Set("setup_s", MedianSetupSeconds(c, host, [&] { w.Setup(); }));
  w.Op(nullptr, r);  // warm-up: caches fill, lazy set-up finishes

  const Columns cols =
      Split(Loop(c.seconds, host, [&] { return w.Op(nullptr, r); }));
  SetTimes(cols, r);
  r->Set("peak_rss_mb", PeakRssMiB());

  if (tracer != nullptr) {
    const std::vector<OpSample> traced =
        Loop(c.seconds / 2, host, [&] { return w.Op(tracer, r); });
    const SpanIndex spans(tracer->Spans());
    std::vector<double> unattributed;
    for (const OpSample& s : traced) {
      unattributed.push_back((spans.Seconds(s.span) -
                              spans.ChildSeconds(s.span) - s.api_stage_s) *
                             1e3);
    }
    r->Set("unattributed_ms", Median(unattributed));
    r->Set("trace_overhead",
           Median(Split(traced).op) / Median(cols.op) - 1.0);
  }
  w.Finish(r);
  if (tracer != nullptr) {
    RunProbes({c, w.world(), w.options(), tracer, r});
  }
}

// ---------------------------------------------------------------------
// serve-mixed.

/// `seconds` of open-loop traffic. Each query connection sends at
/// kQueriesPerSecond; the update connection sends a feed batch every
/// 1 / kUpdatesPerSecond s and, once it is applied, queries the report
/// it produced (read-your-writes). One sample per update: its round
/// trip from the due time, the query, and the daemon CPU over both,
/// with the host reference timed while the connection waits for the
/// next due time. Every delta sent joins `sent`.
std::vector<OpSample> ServePhase(const Daemon& daemon, Connection& updates,
                                 std::vector<Connection>& queries,
                                 FeedStream& feed, double seconds,
                                 std::vector<DatasetDelta>* sent,
                                 HostReference& host, Tracer* tracer,
                                 Result* r) {
  std::vector<OpSample> out;
  std::vector<QueryLog> logs(queries.size());
  const auto start = After(Clock::now(), 0.02);
  const auto end = After(start, seconds);
  {
    std::vector<std::jthread> readers;  // stopped and joined at scope end
    for (size_t q = 0; q < queries.size(); ++q) {
      const double offset = static_cast<double>(q) /
                            (kQueriesPerSecond *
                             static_cast<double>(queries.size()));
      readers.emplace_back([&, q, offset](std::stop_token stop) {
        PacedQueries(stop, &queries[q], start, offset, kQueriesPerSecond,
                     tracer, &logs[q]);
      });
    }
    for (uint64_t i = 0;; ++i) {
      const auto due =
          After(start, static_cast<double>(i) / kUpdatesPerSecond);
      if (due >= end) break;
      const DatasetDelta delta = feed.Next();
      const std::string request = UpdateRequest(delta);
      std::this_thread::sleep_until(due);
      OpSample s;
      const double cpu = daemon.CpuSeconds();
      {
        Scope span(tracer, "serve.update");
        r->Call(CallOk(updates, request).status(), "update round trip");
      }
      s.op_s = SecondsSince(due);
      sent->push_back(delta);
      const auto read = Clock::now();
      {
        Scope span(tracer, "serve.query");
        r->Call(CallOk(updates, VerbRequest("query")).status(),
                "query after update");
      }
      s.read_s.push_back(SecondsSince(read));
      s.cpu_s = daemon.CpuSeconds() - cpu;
      s.host = host.Measure();
      out.push_back(std::move(s));
    }
  }
  for (const QueryLog& log : logs) {
    r->attempted += log.sent;
    r->failed += log.failed;
  }
  return out;
}

void RunServe(const Config& c, Result* r, Tracer* tracer) {
  const std::string socket = "serve.sock";
  BenchWorld world;
  SessionOptions options;
  Daemon daemon;
  std::optional<Connection> updates;
  std::vector<Connection> queries;
  HostReference host;
  r->Set("setup_s", MedianSetupSeconds(c, host, [&] {
           updates.reset();
           daemon.Stop();
           world = MakeWorldOrDie(c);
           options = OptionsFor(*c.workload, world);
           CD_CHECK_OK(daemon.Spawn(c.daemon, socket));
           auto conn = Connection::Open(socket, daemon);
           CD_CHECK_OK(conn.status());
           updates.emplace(std::move(conn).value());
           CD_CHECK_OK(CallOk(*updates, OpenRequest(c, options)).status());
         }));
  for (int q = 0; q < 2; ++q) {
    auto conn = Connection::Open(socket, daemon);
    CD_CHECK_OK(conn.status());
    queries.push_back(std::move(conn).value());
  }

  FeedStream feed(world.data, c.feed_seed());
  std::vector<DatasetDelta> sent;
  // A query sends the report the publish already rendered: its round
  // trip is socket copies and thread wake-ups, which the reference
  // kernels do not track (scaled by them, its spread over ten runs grew
  // from 6% to 8–16%), so reads stay as measured here.
  constexpr bool kScaleReads = false;
  const Columns untraced =
      Split(ServePhase(daemon, *updates, queries, feed, c.seconds, &sent,
                       host, nullptr, r),
            kScaleReads);
  SetTimes(untraced, r);

  if (tracer != nullptr) {
    const size_t first = tracer->Spans().size();
    const Columns traced =
        Split(ServePhase(daemon, *updates, queries, feed, c.seconds / 2,
                         &sent, host, tracer, r),
              kScaleReads);
    // The client sees an update round trip whole: no child spans and no
    // stage times, so all of it is unattributed.
    std::vector<double> rtt;
    const std::vector<Tracer::Span> spans = tracer->Spans();
    for (size_t i = first; i < spans.size(); ++i) {
      if (spans[i].name == "serve.update") rtt.push_back(spans[i].seconds());
    }
    r->Set("unattributed_ms", Median(rtt) * 1e3);
    r->Set("trace_overhead", Median(traced.op) / Median(untraced.op) - 1.0);
  }

  // Every delta was applied, none rejected, and the served report is
  // byte-identical to an in-process replay of the same deltas.
  auto stats = SessionStats(*updates);
  r->Call(stats.status(), "stats");
  if (stats.ok()) {
    r->Check(stats->GetUint64("rejected_updates", 1) == 0,
             "stats: rejected_updates == 0");
    r->Check(stats->GetUint64("version", 0) == sent.size(),
             "stats: version counts every update sent");
  }
  auto final_query = CallOk(*updates, VerbRequest("query"));
  r->Call(final_query.status(), "final query");
  queries.clear();
  updates.reset();
  r->Set("peak_rss_mb", daemon.Stop());

  Dataset replayed = world.data;
  for (const DatasetDelta& delta : sent) {
    auto applied = replayed.Apply(delta);
    r->Call(applied.status(), "replay: Dataset::Apply");
    if (!applied.ok()) return;
    replayed = std::move(applied->data);
  }
  auto replay = CreateAndRun(options, replayed, nullptr);
  r->Call(replay.status(), "replay: run");
  if (final_query.ok() && replay.ok()) {
    auto doc = ParseJson(*final_query);
    const JsonValue* report = doc.ok() ? doc->Find("report") : nullptr;
    r->Check(report != nullptr &&
                 report->Dump() == replay->ToJson(replayed),
             "served report equals the in-process replay");
  }

  if (tracer != nullptr) RunProbes({c, world, options, tracer, r});
}

// ---------------------------------------------------------------------
// Entry point.

const Workload* FindWorkload(std::string_view name) {
  for (const Workload& w : kWorkloads) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

/// The reporter-level host block every output file carries.
JsonValue HostBlock(JsonValue doc) {
  return doc.Set("host_cpus", JsonValue::Uint64(std::max(
                                  1u, std::thread::hardware_concurrency())))
      .Set("build_type", JsonValue::Str(CDBENCH_BUILD_TYPE))
      .Set("sanitize", JsonValue::Str(CDBENCH_SANITIZE));
}

JsonValue MetricsObject(const Result& r, const MetricDef* defs,
                        size_t count) {
  JsonValue metrics = JsonValue::Object();
  for (size_t i = 0; i < count; ++i) {
    auto it = r.metrics.find(defs[i].name);
    if (it == r.metrics.end()) continue;
    metrics.Set(defs[i].name,
                JsonValue::Object()
                    .Set("value", JsonValue::Double(it->second))
                    .Set("unit", JsonValue::Str(defs[i].unit)));
  }
  return metrics;
}

/// Every metric of the pass was measured.
void CheckComplete(const MetricDef* defs, size_t count, Result* r) {
  for (size_t i = 0; i < count; ++i) {
    r->Check(r->metrics.count(defs[i].name) == 1,
             std::string("metric measured: ") + defs[i].name);
  }
}

/// The metric and workload names BENCHMARK.json declares equal the ones
/// this binary emits.
Status CheckExpected(const std::string& path) {
  auto text = ReadFile(path);
  if (!text.ok()) return text.status();
  auto doc = ParseJson(*text);
  if (!doc.ok()) return doc.status();
  auto names = [&](const char* key) {
    std::set<std::string> out;
    if (const JsonValue* list = doc->Find(key); list != nullptr) {
      for (const JsonValue& e : list->items()) out.insert(e.GetString("name"));
    }
    return out;
  };
  auto ours = [](const auto& table) {
    std::set<std::string> out;
    for (const auto& e : table) out.insert(e.name);
    return out;
  };
  std::string problems;
  auto compare = [&](const char* key, const std::set<std::string>& emitted) {
    const std::set<std::string> declared = names(key);
    for (const std::string& n : declared) {
      if (!emitted.count(n)) problems += " missing " + n + " (" + key + ");";
    }
    for (const std::string& n : emitted) {
      if (!declared.count(n)) {
        problems += " undeclared " + n + " (" + key + ");";
      }
    }
  };
  compare("workloads", ours(kWorkloads));
  compare("end_to_end", ours(kEndToEnd));
  compare("per_layer", ours(kPerLayer));
  if (!problems.empty()) {
    return Status::FailedPrecondition(path + ":" + problems);
  }
  return Status::OK();
}

struct Flags {
  std::string workload = "all";
  uint64_t seed = 7;
  double seconds = 15.0;
  std::string trace;
  std::string json;
  std::string expect;
  bool quick = false;
};

/// "out.json" + "batch-book" -> "out.batch-book.json".
std::string PerWorkloadPath(const std::string& path, const char* workload) {
  const fs::path p(path);
  return (p.parent_path() /
          (p.stem().string() + "." + workload + p.extension().string()))
      .string();
}

/// --workload=all: re-executes this binary once per workload, so each
/// runs in a fresh process, and merges their --json documents.
int RunAll(const Flags& flags) {
  const std::string self = fs::read_symlink("/proc/self/exe").string();
  int exit_code = 0;
  JsonValue records = JsonValue::Array();
  JsonValue runs = JsonValue::Array();
  for (const Workload& w : kWorkloads) {
    std::vector<std::string> args = {
        self, std::string("--workload=") + w.name,
        "--seed=" + std::to_string(flags.seed),
        "--seconds=" + std::to_string(flags.seconds)};
    if (flags.quick) args.push_back("--quick");
    if (!flags.trace.empty()) {
      args.push_back("--trace=" + PerWorkloadPath(flags.trace, w.name));
    }
    const std::string child_json =
        flags.json.empty() ? "" : PerWorkloadPath(flags.json, w.name);
    if (!child_json.empty()) args.push_back("--json=" + child_json);
    if (!flags.expect.empty()) args.push_back("--expect=" + flags.expect);

    std::fflush(stdout);
    const pid_t pid = fork();
    if (pid == 0) {
      std::vector<char*> argv;
      for (std::string& a : args) argv.push_back(a.data());
      argv.push_back(nullptr);
      execv(self.c_str(), argv.data());
      _exit(127);
    }
    int status = 0;
    if (pid < 0 || waitpid(pid, &status, 0) != pid || !WIFEXITED(status) ||
        WEXITSTATUS(status) != 0) {
      std::fprintf(stderr, "cdbench: workload %s failed\n", w.name);
      exit_code = 1;
    }
    if (child_json.empty()) continue;
    auto text = ReadFile(child_json);
    auto doc = text.ok() ? ParseJson(*text) : StatusOr<JsonValue>(text.status());
    if (!doc.ok()) {
      exit_code = 1;
      continue;
    }
    runs.Append(JsonValue::Object()
                    .Set("workload", JsonValue::Str(w.name))
                    .Set("correct", *doc->Find("correct"))
                    .Set("attempted", *doc->Find("attempted"))
                    .Set("failed", *doc->Find("failed")));
    for (const JsonValue& rec : doc->Find("records")->items()) {
      records.Append(rec);
    }
    fs::remove(child_json);
  }
  if (!flags.json.empty()) {
    JsonValue doc = HostBlock(JsonValue::Object()
                                  .Set("benchmark", JsonValue::Str("cdbench"))
                                  .Set("schema_version", JsonValue::Int64(4)))
                        .Set("seed", JsonValue::Uint64(flags.seed))
                        .Set("seconds", JsonValue::Double(flags.seconds))
                        .Set("workloads", std::move(runs))
                        .Set("records", std::move(records));
    if (!WriteFile(flags.json, doc.Dump() + "\n").ok()) exit_code = 3;
  }
  return exit_code;
}

/// The BENCH-style document of one workload: host block plus one record
/// per metric (real_seconds set for the time metrics).
JsonValue RecordsDocument(const Flags& flags, const Workload& w,
                          const Config& c, const Result& r) {
  JsonValue records = JsonValue::Array();
  auto add = [&](const MetricDef& def) {
    auto it = r.metrics.find(def.name);
    if (it == r.metrics.end()) return;
    JsonValue rec =
        JsonValue::Object()
            .Set("name", JsonValue::Str(std::string("cdbench/") + w.name +
                                        "/" + def.name))
            .Set("detector", JsonValue::Str(w.detector))
            .Set("dataset", JsonValue::Str(w.world))
            .Set("scale", JsonValue::Double(c.scale()))
            .Set("threads", JsonValue::Uint64(w.threads))
            .Set("unit", JsonValue::Str(def.unit))
            .Set("value", JsonValue::Double(it->second));
    const std::string unit = def.unit;
    if (unit == "s" || unit == "ms") {
      rec.Set("real_seconds",
              JsonValue::Double(unit == "s" ? it->second : it->second / 1e3));
    }
    records.Append(std::move(rec));
  };
  for (const MetricDef& def : kEndToEnd) add(def);
  for (const MetricDef& def : kPerLayer) add(def);
  return HostBlock(JsonValue::Object()
                       .Set("benchmark", JsonValue::Str("cdbench"))
                       .Set("schema_version", JsonValue::Int64(4)))
      .Set("workload", JsonValue::Str(w.name))
      .Set("seed", JsonValue::Uint64(flags.seed))
      .Set("seconds", JsonValue::Double(flags.seconds))
      .Set("correct", JsonValue::Bool(r.correct))
      .Set("attempted", JsonValue::Uint64(r.attempted))
      .Set("failed", JsonValue::Uint64(r.failed))
      .Set("records", std::move(records));
}

std::string Absolute(const std::string& path) {
  return path.empty() ? path : fs::absolute(path).string();
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags;
  FlagSet set(
      "cdbench: end-to-end and per-layer benchmark of every user path");
  set.String("workload", &flags.workload,
             "batch-book | batch-stock | feed-update | restart | "
             "serve-mixed | all");
  set.Uint64("seed", &flags.seed, "seed of the worlds and the feed");
  set.Double("seconds", &flags.seconds, "measurement time per pass");
  set.String("trace", &flags.trace,
             "add the traced pass; write its spans here (Chrome JSON)");
  set.String("json", &flags.json, "write a BENCH-style document here");
  set.String("expect", &flags.expect,
             "fail unless this BENCHMARK.json declares exactly the "
             "emitted workloads and metrics");
  set.Bool("quick", &flags.quick, "small worlds, one repetition (smoke)");
  set.ParseOrDie(argc, argv);

  if (!flags.quick && (std::string(CDBENCH_BUILD_TYPE) != "Release" ||
                       !std::string(CDBENCH_SANITIZE).empty())) {
    std::fprintf(stderr,
                 "cdbench: refusing a full run on a '%s' build with "
                 "sanitizers '%s' — build Release without sanitizers, or "
                 "pass --quick\n",
                 CDBENCH_BUILD_TYPE, CDBENCH_SANITIZE);
    return 2;
  }
  flags.trace = Absolute(flags.trace);
  flags.json = Absolute(flags.json);
  flags.expect = Absolute(flags.expect);
  if (flags.workload == "all") return RunAll(flags);

  const Workload* workload = FindWorkload(flags.workload);
  if (workload == nullptr || flags.seconds <= 0.0) {
    std::fprintf(stderr, "cdbench: unknown --workload=%s or bad --seconds\n",
                 flags.workload.c_str());
    return 2;
  }
  Config config;
  config.workload = workload;
  config.seed = flags.seed;
  config.seconds = flags.seconds;
  config.quick = flags.quick;
  config.daemon = Absolute(config.daemon);

  // Snapshots and sockets live in a work directory of this process;
  // working inside it keeps socket paths short wherever the build is.
  const fs::path home = fs::current_path();
  const fs::path work = fs::absolute(CDBENCH_WORK_DIR) /
                        (std::string(workload->name) + "-" +
                         std::to_string(getpid()));
  fs::create_directories(work);
  fs::current_path(work);

  Result result;
  Tracer tracer;
  Tracer* traced = flags.trace.empty() ? nullptr : &tracer;
  if (workload->path == Path::kServe) {
    RunServe(config, &result, traced);
  } else {
    std::unique_ptr<ClosedLoopWorkload> w;
    switch (workload->path) {
      case Path::kBatch:
        w = std::make_unique<BatchWorkload>(config);
        break;
      case Path::kFeed:
        w = std::make_unique<FeedWorkload>(config);
        break;
      default:
        w = std::make_unique<RestartWorkload>(config);
        break;
    }
    RunClosedLoop(config, *w, &result, traced);
  }
  fs::current_path(home);
  fs::remove_all(work);

  CheckComplete(kEndToEnd, std::size(kEndToEnd), &result);
  if (traced != nullptr) {
    CheckComplete(kPerLayer, std::size(kPerLayer), &result);
    result.Call(WriteTrace(tracer.Spans(), flags.trace), "write trace");
    result.Check(CheckTraceNesting(flags.trace).ok(), "trace spans nest");
  }
  if (!flags.expect.empty()) {
    const Status expected = CheckExpected(flags.expect);
    result.Check(expected.ok(), expected.ToString());
  }

  const MetricDef* defs = traced != nullptr ? kPerLayer : kEndToEnd;
  const size_t count =
      traced != nullptr ? std::size(kPerLayer) : std::size(kEndToEnd);
  for (size_t i = 0; i < count; ++i) {
    auto it = result.metrics.find(defs[i].name);
    if (it == result.metrics.end()) continue;
    std::printf("%-12s %-26s %14.4f %s\n", workload->name, defs[i].name,
                it->second, defs[i].unit);
  }
  if (!flags.json.empty()) {
    const Status written = WriteFile(
        flags.json,
        RecordsDocument(flags, *workload, config, result).Dump() + "\n");
    result.Call(written, "write --json");
  }
  std::printf("%s\n", JsonValue::Object()
                          .Set("correct", JsonValue::Bool(result.correct))
                          .Set("attempted", JsonValue::Uint64(result.attempted))
                          .Set("failed", JsonValue::Uint64(result.failed))
                          .Set("metrics", MetricsObject(result, defs, count))
                          .Dump()
                          .c_str());
  return result.ok() ? 0 : 1;
}
