// Micro-benchmarks of the primitives behind the detection scan:
// hashing, pair-map updates, Bayesian scoring, index construction,
// overlap counting, NRA, the PAIRWISE inner merge, and one full
// detection round per detector kind.
//
// Beyond the standard Google Benchmark flags, --json=<path> writes
// the measurements as a json_reporter.h document (BENCH_micro.json in
// the perf trajectory) and --threads=<N> sets the width of the
// multi-threaded detector-round variants (0 = hardware concurrency;
// every detector round is additionally measured at threads=1, so one
// run records the speedup curve).
#include <benchmark/benchmark.h>

#if defined(__GLIBC__)
#include <malloc.h>
#endif

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <utility>

// This harness is deliberately white-box (micro-benchmarks of core
// primitives and the direct-IterativeFusion facade-overhead anchor) —
// it is one of the named exemptions from the examples/bench include
// boundary in docs/API.md.
#include "bench_util.h"
#include "common/flat_hash.h"
#include "common/random.h"
#include "core/bayes.h"  // cd-lint: allow(layering) white-box microbench (docs/API.md exemption)
#include "core/inverted_index.h"  // cd-lint: allow(layering) white-box microbench (docs/API.md exemption)
#include "core/pairwise.h"  // cd-lint: allow(layering) white-box microbench (docs/API.md exemption)
#include "core/sharded_detector.h"  // cd-lint: allow(layering) white-box microbench (docs/API.md exemption)
#include "fusion/truth_finder.h"  // cd-lint: allow(layering) white-box microbench (docs/API.md exemption)
#include "simjoin/intersect.h"  // cd-lint: allow(layering) white-box microbench (docs/API.md exemption)
#include "simjoin/overlap.h"  // cd-lint: allow(layering) white-box microbench (docs/API.md exemption)
#include "simjoin/prefix_join.h"  // cd-lint: allow(layering) white-box microbench (docs/API.md exemption)
#include "topk/nra.h"  // cd-lint: allow(layering) white-box microbench (docs/API.md exemption)

namespace copydetect {
namespace {

DetectionParams Params() {
  DetectionParams params;
  params.alpha = 0.1;
  params.s = 0.8;
  params.n = 50.0;
  return params;
}

World BenchWorld(size_t sources, size_t items) {
  WorldConfig config;
  config.num_sources = sources;
  config.num_items = items;
  config.false_pool = 12;
  config.coverage = {.frac_small = 0.3,
                     .small_lo = 0.05,
                     .small_hi = 0.3,
                     .big_lo = 0.4,
                     .big_hi = 0.9};
  config.copying.num_groups = sources / 10;
  auto world = GenerateWorld(config, 42);
  CD_CHECK_OK(world.status());
  return std::move(world).value();
}

struct WorldInputs {
  World world;
  std::vector<double> probs;
  std::vector<double> accs;

  WorldInputs(size_t sources, size_t items)
      : WorldInputs(BenchWorld(sources, items)) {}

  explicit WorldInputs(World w) : world(std::move(w)) {
    const Dataset& data = world.data;
    probs.assign(data.num_slots(), 0.0);
    for (ItemId d = 0; d < data.num_items(); ++d) {
      double total = static_cast<double>(data.item_providers(d).size());
      for (SlotId v = data.slot_begin(d); v < data.slot_end(d); ++v) {
        probs[v] = total == 0.0
                       ? 0.0
                       : 0.9 * static_cast<double>(
                                   data.providers(v).size()) /
                             total;
      }
    }
    accs = world.true_accuracy;
  }

  DetectionInput Input() const {
    DetectionInput in;
    in.data = &world.data;
    in.value_probs = &probs;
    in.accuracies = &accs;
    return in;
  }
};

void BM_Mix64(benchmark::State& state) {
  uint64_t x = 0x12345;
  for (auto _ : state) {
    x = Mix64(x);
    benchmark::DoNotOptimize(x);
  }
}
BENCHMARK(BM_Mix64);

void BM_FlatHashMapUpsert(benchmark::State& state) {
  const size_t keys = static_cast<size_t>(state.range(0));
  Rng rng(7);
  std::vector<uint64_t> sequence(1 << 14);
  for (uint64_t& k : sequence) k = rng.NextBelow(keys);
  FlatHashMap<double> map;
  map.Reserve(keys);
  size_t i = 0;
  for (auto _ : state) {
    map[sequence[i & (sequence.size() - 1)]] += 1.0;
    ++i;
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_FlatHashMapUpsert)->Arg(1 << 10)->Arg(1 << 16);

void BM_SharedContribution(benchmark::State& state) {
  DetectionParams params = Params();
  double p = 0.05;
  for (auto _ : state) {
    double c = SharedContribution(p, 0.8, 0.3, params);
    benchmark::DoNotOptimize(c);
  }
}
BENCHMARK(BM_SharedContribution);

void BM_MaxEntryContribution(benchmark::State& state) {
  DetectionParams params = Params();
  std::vector<double> accs(static_cast<size_t>(state.range(0)));
  Rng rng(9);
  for (double& a : accs) a = rng.UniformDouble(0.05, 0.95);
  for (auto _ : state) {
    double c = MaxEntryContribution(accs, 0.05, params);
    benchmark::DoNotOptimize(c);
  }
}
BENCHMARK(BM_MaxEntryContribution)->Arg(2)->Arg(8)->Arg(64);

void BM_NoCopyPosterior(benchmark::State& state) {
  DetectionParams params = Params();
  for (auto _ : state) {
    double p = NoCopyPosterior(3.4, 2.1, params);
    benchmark::DoNotOptimize(p);
  }
}
BENCHMARK(BM_NoCopyPosterior);

void BM_IndexBuild(benchmark::State& state) {
  WorldInputs inputs(64, static_cast<size_t>(state.range(0)));
  DetectionParams params = Params();
  for (auto _ : state) {
    auto index = InvertedIndex::Build(inputs.Input(), params);
    benchmark::DoNotOptimize(index);
  }
  state.SetItemsProcessed(
      static_cast<int64_t>(state.iterations()) *
      static_cast<int64_t>(inputs.world.data.num_slots()));
}
BENCHMARK(BM_IndexBuild)->Arg(1000)->Arg(8000)->Unit(
    benchmark::kMillisecond);

void BM_OverlapCounting(benchmark::State& state) {
  WorldInputs inputs(64, static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    OverlapCounts counts = ComputeOverlaps(inputs.world.data);
    benchmark::DoNotOptimize(counts);
  }
}
// The 32000-item point keeps the bitmap-vs-per-item crossover of
// ChooseOverlapPath honest at a universe 4x past the perf anchors.
BENCHMARK(BM_OverlapCounting)
    ->Arg(1000)
    ->Arg(8000)
    ->Arg(32000)
    ->Unit(benchmark::kMillisecond);

// The sorted-slot intersection kernel across list sizes and skews.
// range(0) is the longer list's length, range(1) the length ratio:
// skew 1 exercises the block-compare SIMD merge, skew >= 32 the
// galloping path (see ChooseKernel in simjoin/intersect.cc). Lists are
// sorted unique u32 draws from a universe sized for ~30% match
// density — the regime the overlap and pairwise layers feed it.
void BM_SortedIntersect(benchmark::State& state) {
  const size_t large = static_cast<size_t>(state.range(0));
  const size_t skew = static_cast<size_t>(state.range(1));
  const size_t small = std::max<size_t>(1, large / skew);
  Rng rng(17);
  const uint32_t universe =
      static_cast<uint32_t>(large * 10 / 3 + small);
  auto draw = [&](size_t n) {
    FlatHashSet seen;
    std::vector<ItemId> out;
    out.reserve(n);
    while (out.size() < n) {
      uint32_t v = static_cast<uint32_t>(rng.NextBelow(universe));
      if (seen.Insert(v)) out.push_back(v);
    }
    std::sort(out.begin(), out.end());
    return out;
  };
  std::vector<ItemId> a = draw(small);
  std::vector<ItemId> b = draw(large);
  for (auto _ : state) {
    uint32_t size = IntersectSize(a, b);
    benchmark::DoNotOptimize(size);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(small + large));
}
BENCHMARK(BM_SortedIntersect)
    ->ArgsProduct({{1 << 6, 1 << 10, 1 << 14}, {1, 8, 256}});

void BM_PrefixJoin(benchmark::State& state) {
  WorldInputs inputs(128, 2000);
  for (auto _ : state) {
    auto pairs = PrefixFilterJoin(inputs.world.data, 16);
    benchmark::DoNotOptimize(pairs);
  }
}
BENCHMARK(BM_PrefixJoin)->Unit(benchmark::kMillisecond);

void BM_PairMerge(benchmark::State& state) {
  WorldInputs inputs(64, 4000);
  DetectionParams params = Params();
  DetectionInput in = inputs.Input();
  Counters counters;
  SourceId a = 0;
  SourceId b = 1;
  for (auto _ : state) {
    PairScores scores = ComputePairScores(in, a, b, params, &counters);
    benchmark::DoNotOptimize(scores);
    b = static_cast<SourceId>((b + 1) % 64);
    if (b == a) b = static_cast<SourceId>(a + 1);
  }
}
BENCHMARK(BM_PairMerge);

void BM_NraTopK(benchmark::State& state) {
  Rng rng(21);
  std::vector<NraList> lists(8);
  for (NraList& list : lists) {
    for (uint64_t id = 0; id < 2000; ++id) {
      if (rng.Bernoulli(0.5)) {
        list.entries.emplace_back(id, rng.UniformDouble(0.0, 10.0));
      }
    }
    std::sort(list.entries.begin(), list.entries.end(),
              [](const auto& x, const auto& y) {
                return x.second > y.second;
              });
  }
  for (auto _ : state) {
    NraResult result = NraTopK(lists, 10);
    benchmark::DoNotOptimize(result);
  }
}
BENCHMARK(BM_NraTopK)->Unit(benchmark::kMillisecond);

// ---------------------------------------------------------------------
// Full detection rounds, one benchmark per detector kind and executor
// width. These are the "per-detector timings" of BENCH_micro.json: a
// single round over a fixed generated world, detector state reset
// every iteration. Each kind is registered at threads=1 (the serial
// path) and at the --threads width, so one run records both ends of
// the speedup curve.

constexpr size_t kDetectorSources = 48;
constexpr size_t kDetectorItems = 1500;

/// Scale of the book-full profile used by BM_IndexRound/book-full —
/// the bench-default scale of that data set (see bench_util.h).
constexpr double kBookFullScale = 0.05;

const WorldInputs& DetectorWorld() {
  static const WorldInputs* inputs =
      new WorldInputs(kDetectorSources, kDetectorItems);
  return *inputs;
}

const WorldInputs& BookFullWorld() {
  static const WorldInputs* inputs = new WorldInputs([] {
    auto world = MakeWorldByName("book-full", kBookFullScale, 42);
    CD_CHECK_OK(world.status());
    return std::move(world).value();
  }());
  return *inputs;
}

void DetectorRoundLoop(benchmark::State& state, const WorldInputs& inputs,
                       const std::string& detector_name) {
  const size_t threads = static_cast<size_t>(state.range(0));
  // One persistent executor per measured configuration, shared across
  // iterations — the pool is part of the runtime, not of the round.
  Executor executor(threads);
  DetectionParams params = Params();
  params.executor = &executor;
  auto detector =
      DetectorRegistry::Global().Create(detector_name, params);
  if (!detector.ok()) {
    state.SkipWithError(detector.status().message().c_str());
    return;
  }
  DetectionInput in = inputs.Input();
  CopyResult result;
  for (auto _ : state) {
    (*detector)->Reset();
    Status status = (*detector)->DetectRound(in, /*round=*/1, &result);
    if (!status.ok()) {
      state.SkipWithError(status.message().c_str());
      break;
    }
    benchmark::DoNotOptimize(result);
  }
}

void BM_DetectorRound(benchmark::State& state,
                      const std::string& detector_name) {
  DetectorRoundLoop(state, DetectorWorld(), detector_name);
}

void BM_IndexRoundBookFull(benchmark::State& state) {
  DetectorRoundLoop(state, BookFullWorld(), "index");
}

/// Session configuration of the facade-overhead pair: the standard
/// bench configuration, one full one-shot run over book-full with the
/// INDEX detector, serial.
SessionOptions BookFullSessionOptions() {
  SessionOptions options =
      bench::SessionOptionsFor(BookFullWorld().world, /*max_rounds=*/6);
  options.detector = "index";
  options.threads = 1;
  return options;
}

/// The full pipeline through the public facade: Session::Create +
/// Run, exactly what examples and the CLI execute per invocation.
void BM_SessionRunBookFull(benchmark::State& state) {
  const World& world = BookFullWorld().world;
  SessionOptions options = BookFullSessionOptions();
  for (auto _ : state) {
    auto session = Session::Create(options);
    if (!session.ok()) {
      state.SkipWithError(session.status().message().c_str());
      break;
    }
    auto report = session->Run(world.data);
    if (!report.ok()) {
      state.SkipWithError(report.status().message().c_str());
      break;
    }
    benchmark::DoNotOptimize(report->fusion.rounds);
  }
}

/// The online-update anchor: one Session::Update of a small fixed
/// delta (one source's first ten items re-pushed) against a live
/// book-full session, steady state. BM_SessionRun is the cold
/// full-run twin; the perf-gate CI compares both against the
/// committed baseline so a regression in either the update machinery
/// (apply, overlap patching, index rebase, pair splicing) or the
/// plain pipeline fails the PR.
void BM_SessionUpdateBookFull(benchmark::State& state) {
  const World& world = BookFullWorld().world;
  const Dataset& data = world.data;
  SessionOptions options = BookFullSessionOptions();
  options.online_updates = true;
  auto session = Session::Create(options);
  if (!session.ok()) {
    state.SkipWithError(session.status().message().c_str());
    return;
  }
  auto base = session->Run(data);
  if (!base.ok()) {
    state.SkipWithError(base.status().message().c_str());
    return;
  }
  // A fixed feed push: after the first iteration the snapshot already
  // holds these values, so every timed Update measures the same
  // steady-state work.
  DatasetDelta delta;
  std::span<const ItemId> items = data.items_of(0);
  for (size_t i = 0; i < items.size() && i < 10; ++i) {
    delta.Set(data.source_name(0), data.item_name(items[i]),
              "updated-" + std::to_string(i));
  }
  for (auto _ : state) {
    Status status = session->Update(delta);
    if (!status.ok()) {
      state.SkipWithError(status.message().c_str());
      break;
    }
    benchmark::DoNotOptimize(session->report().rounds());
  }
}

/// The render anchor: Report::ToJson of the book-full INDEX report —
/// what a `query` serves and what the session manager renders on
/// every publish. The report is computed once, outside the loop.
void BM_ReportToJsonBookFull(benchmark::State& state) {
  const World& world = BookFullWorld().world;
  auto session = Session::Create(BookFullSessionOptions());
  if (!session.ok()) {
    state.SkipWithError(session.status().message().c_str());
    return;
  }
  auto report = session->Run(world.data);
  if (!report.ok()) {
    state.SkipWithError(report.status().message().c_str());
    return;
  }
  for (auto _ : state) {
    std::string json = report->ToJson(world.data);
    benchmark::DoNotOptimize(json.data());
    benchmark::ClobberMemory();
  }
}

/// The warm-start anchor: Session::Load of the snapshot a finished
/// book-full session Save()d — everything a restarted serving process
/// pays instead of the cold BM_SessionRun (CSV/world setup excluded
/// from both). The acceptance bar is Load landing well under the cold
/// run; both anchors feed the perf-gate comparison.
void BM_SessionLoadBookFull(benchmark::State& state) {
  const World& world = BookFullWorld().world;
  SessionOptions options = BookFullSessionOptions();
  options.online_updates = true;  // keep state past Run for Save
  const std::string path = "bm_session_load.cdsnap";
  {
    auto session = Session::Create(options);
    if (!session.ok()) {
      state.SkipWithError(session.status().message().c_str());
      return;
    }
    auto report = session->Run(world.data);
    if (!report.ok()) {
      state.SkipWithError(report.status().message().c_str());
      return;
    }
    Status saved = session->Save(path);
    if (!saved.ok()) {
      state.SkipWithError(saved.message().c_str());
      return;
    }
  }
  for (auto _ : state) {
    auto loaded = Session::Load(path, LoadOptions());
    if (!loaded.ok()) {
      state.SkipWithError(loaded.status().message().c_str());
      break;
    }
    benchmark::DoNotOptimize(loaded->report().rounds());
  }
  std::remove(path.c_str());
}

/// Peak-RSS probes for the mapped-load acceptance check. Writing "5"
/// to /proc/self/clear_refs resets the VmHWM high-water mark to the
/// current RSS, so the delta after a load is that load's peak memory
/// growth. Linux-only; callers skip the check when the reset fails.
bool ResetPeakRss() {
  std::FILE* f = std::fopen("/proc/self/clear_refs", "w");
  if (f == nullptr) return false;
  bool ok = std::fputs("5", f) >= 0;
  return (std::fclose(f) == 0) && ok;
}

size_t PeakRssKb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0;
  char line[256];
  size_t kb = 0;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::sscanf(line, "VmHWM: %zu kB", &kb) == 1) break;
  }
  std::fclose(f);
  return kb;
}

/// Returns freed heap pages to the OS so the next load's allocations
/// fault in fresh pages. Without this the warm allocator satisfies
/// the owned decode from already-resident pages and its RSS delta
/// reads ~0, drowning the real comparison in page-reuse noise.
void TrimHeap() {
#if defined(__GLIBC__)
  malloc_trim(0);
#endif
}

/// The mapped warm-start anchor: the same snapshot as BM_SessionLoad,
/// loaded with LoadMode::kMapped. The v2 sections back the Dataset
/// arrays and the dense overlap triangle in place, so the mapped load
/// must beat the owned one on both time (perf-gate compares the two
/// records) and peak memory — the one-time VmHWM probe below asserts
/// the memory half and fails the run (SkipWithError, which the
/// --json path turns into exit 4) if mapping silently degraded into a
/// copy. Each measurement starts from a trimmed heap (TrimHeap) and a
/// reset high-water mark, so both deltas count freshly faulted pages
/// rather than allocator page reuse.
void BM_SessionLoadMappedBookFull(benchmark::State& state) {
  const World& world = BookFullWorld().world;
  SessionOptions options = BookFullSessionOptions();
  options.online_updates = true;  // keep state past Run for Save
  const std::string path = "bm_session_load_mapped.cdsnap";
  {
    auto session = Session::Create(options);
    if (!session.ok()) {
      state.SkipWithError(session.status().message().c_str());
      return;
    }
    auto report = session->Run(world.data);
    if (!report.ok()) {
      state.SkipWithError(report.status().message().c_str());
      return;
    }
    Status saved = session->Save(path);
    if (!saved.ok()) {
      state.SkipWithError(saved.message().c_str());
      return;
    }
  }
  static bool rss_checked = false;
  if (!rss_checked && ResetPeakRss()) {
    rss_checked = true;
    TrimHeap();
    ResetPeakRss();
    size_t before = PeakRssKb();
    int mapped_rounds = 0;
    {
      auto mapped = Session::Load(path, LoadMode::kMapped);
      if (!mapped.ok()) {
        state.SkipWithError(mapped.status().message().c_str());
        std::remove(path.c_str());
        return;
      }
      mapped_rounds = mapped->report().rounds();
    }
    size_t mapped_peak_kb = PeakRssKb() - before;
    TrimHeap();
    ResetPeakRss();
    before = PeakRssKb();
    int owned_rounds = 0;
    {
      auto owned = Session::Load(path, LoadMode::kOwned);
      if (!owned.ok()) {
        state.SkipWithError(owned.status().message().c_str());
        std::remove(path.c_str());
        return;
      }
      owned_rounds = owned->report().rounds();
    }
    size_t owned_peak_kb = PeakRssKb() - before;
    if (mapped_rounds != owned_rounds) {
      state.SkipWithError("mapped load diverged from owned load");
      std::remove(path.c_str());
      return;
    }
    if (mapped_peak_kb >= owned_peak_kb) {
      std::string msg = StrFormat(
          "mapped load peak RSS %zu kB >= owned %zu kB — the view "
          "backend is copying",
          mapped_peak_kb, owned_peak_kb);
      state.SkipWithError(msg.c_str());
      std::remove(path.c_str());
      return;
    }
    state.counters["mapped_peak_kb"] = benchmark::Counter(
        static_cast<double>(mapped_peak_kb));
    state.counters["owned_peak_kb"] = benchmark::Counter(
        static_cast<double>(owned_peak_kb));
  }
  for (auto _ : state) {
    auto loaded = Session::Load(path, LoadMode::kMapped);
    if (!loaded.ok()) {
      state.SkipWithError(loaded.status().message().c_str());
      break;
    }
    benchmark::DoNotOptimize(loaded->report().rounds());
  }
  std::remove(path.c_str());
}

/// Scale of the book-cs world behind BM_ShardedDetect — the bench
/// default of that data set (see bench_util.h).
constexpr double kBookCsScale = 0.5;

const WorldInputs& BookCsWorld() {
  static const WorldInputs* inputs = new WorldInputs([] {
    auto world = MakeWorldByName("book-cs", kBookCsScale, 42);
    CD_CHECK_OK(world.status());
    return std::move(world).value();
  }());
  return *inputs;
}

/// The in-process sharding anchor: one INDEX detection round through
/// the N-shard harness (N inner detectors, each scanning its slice of
/// the pair set, merged per round). Against BM_DetectorRound/index
/// this prices the shard overhead (N index builds + merge) that the
/// multi-process CLI path pays per round.
void BM_ShardedDetectBookCs(benchmark::State& state) {
  const uint32_t shards = static_cast<uint32_t>(state.range(0));
  Executor executor(1);
  DetectionParams params = Params();
  params.executor = &executor;
  auto detector = ShardedDetector::Create("index", params, shards);
  if (!detector.ok()) {
    state.SkipWithError(detector.status().message().c_str());
    return;
  }
  DetectionInput in = BookCsWorld().Input();
  CopyResult result;
  for (auto _ : state) {
    (*detector)->Reset();
    Status status = (*detector)->DetectRound(in, /*round=*/1, &result);
    if (!status.ok()) {
      state.SkipWithError(status.message().c_str());
      break;
    }
    benchmark::DoNotOptimize(result);
  }
}

/// The pre-facade anchor: identical configuration driven directly
/// through IterativeFusion. BM_SessionRun minus BM_FusionRun is the
/// facade's overhead (detector construction, registry lookup, report
/// assembly incl. the copy-graph analysis).
void BM_FusionRunBookFull(benchmark::State& state) {
  const World& world = BookFullWorld().world;
  SessionOptions options = BookFullSessionOptions();
  for (auto _ : state) {
    Executor executor(1);
    FusionOptions fusion = options.ToFusionOptions();
    fusion.params.executor = &executor;
    auto detector =
        DetectorRegistry::Global().Create("index", fusion.params);
    if (!detector.ok()) {
      state.SkipWithError(detector.status().message().c_str());
      break;
    }
    auto result =
        IterativeFusion(fusion).Run(world.data, detector->get());
    if (!result.ok()) {
      state.SkipWithError(result.status().message().c_str());
      break;
    }
    benchmark::DoNotOptimize(result->rounds);
  }
}

/// The detector-round benchmarks are named kDetectorPrefix +
/// <registry name> + "/" + threads; CollectingReporter recovers
/// detector and threads by parsing the name. kBookFullPrefix is the
/// INDEX round over the book-full profile (the acceptance speedup
/// anchor); kSessionRunName/kFusionRunName are the facade-overhead
/// pair (full runs, serial); kReportToJsonName renders that run's
/// report.
constexpr std::string_view kDetectorPrefix = "BM_DetectorRound/";
constexpr std::string_view kBookFullPrefix = "BM_IndexRound/book-full";
constexpr std::string_view kSessionRunName = "BM_SessionRun/book-full";
constexpr std::string_view kFusionRunName = "BM_FusionRun/book-full";
constexpr std::string_view kSessionUpdateName =
    "BM_SessionUpdate/book-full";
constexpr std::string_view kSessionLoadName =
    "BM_SessionLoad/book-full";
constexpr std::string_view kReportToJsonName =
    "BM_ReportToJson/book-full";
constexpr std::string_view kSessionLoadMappedName =
    "BM_SessionLoad/mapped/book-full";
constexpr std::string_view kShardedDetectPrefix =
    "BM_ShardedDetect/book-cs";

void RegisterDetectorBenchmarks(size_t multi_threads) {
  // Every registered detector, straight from the registry — a
  // detector added by one CD_REGISTER_DETECTOR stanza shows up here
  // (and in --detector=<name>) with no bench change.
  for (const std::string& name : ListDetectors()) {
    std::string bench_name = std::string(kDetectorPrefix) + name;
    auto* bench = benchmark::RegisterBenchmark(
        bench_name.c_str(), BM_DetectorRound, name);
    bench->Unit(benchmark::kMillisecond)->Arg(1);
    if (multi_threads > 1) bench->Arg(static_cast<int>(multi_threads));
  }
  auto* book_full = benchmark::RegisterBenchmark(
      std::string(kBookFullPrefix).c_str(), BM_IndexRoundBookFull);
  book_full->Unit(benchmark::kMillisecond)->Arg(1);
  if (multi_threads > 1) {
    book_full->Arg(static_cast<int>(multi_threads));
  }
  benchmark::RegisterBenchmark(std::string(kSessionRunName).c_str(),
                               BM_SessionRunBookFull)
      ->Unit(benchmark::kMillisecond);
  benchmark::RegisterBenchmark(std::string(kFusionRunName).c_str(),
                               BM_FusionRunBookFull)
      ->Unit(benchmark::kMillisecond);
  benchmark::RegisterBenchmark(std::string(kSessionUpdateName).c_str(),
                               BM_SessionUpdateBookFull)
      ->Unit(benchmark::kMillisecond);
  benchmark::RegisterBenchmark(std::string(kSessionLoadName).c_str(),
                               BM_SessionLoadBookFull)
      ->Unit(benchmark::kMillisecond);
  benchmark::RegisterBenchmark(std::string(kReportToJsonName).c_str(),
                               BM_ReportToJsonBookFull)
      ->Unit(benchmark::kMillisecond);
  benchmark::RegisterBenchmark(
      std::string(kSessionLoadMappedName).c_str(),
      BM_SessionLoadMappedBookFull)
      ->Unit(benchmark::kMillisecond);
  benchmark::RegisterBenchmark(
      std::string(kShardedDetectPrefix).c_str(), BM_ShardedDetectBookCs)
      ->Unit(benchmark::kMillisecond)
      ->Arg(4);
}

/// True when the run produced no usable measurement. Google Benchmark
/// renamed Run::error_occurred to the Run::skipped enum in v1.8, so
/// probe for whichever member this library version has.
template <typename R>
bool RunSkipped(const R& run) {
  if constexpr (requires { run.error_occurred; }) {
    return run.error_occurred;
  } else {
    return run.skipped != decltype(run.skipped){};
  }
}

/// Display reporter that forwards to the --benchmark_format-selected
/// reporter while collecting every finished run into a json_reporter.h
/// document. (Passing a reporter to RunSpecifiedBenchmarks bypasses
/// the library's own format selection, so we replicate it.)
class CollectingReporter : public benchmark::BenchmarkReporter {
 public:
  CollectingReporter(bench::JsonReporter* json,
                     std::unique_ptr<benchmark::BenchmarkReporter> inner)
      : json_(json), inner_(std::move(inner)) {}

  bool ReportContext(const Context& context) override {
    inner_->SetOutputStream(&GetOutputStream());
    inner_->SetErrorStream(&GetErrorStream());
    return inner_->ReportContext(context);
  }

  void Finalize() override { inner_->Finalize(); }

  size_t skipped_runs() const { return skipped_runs_; }

  void ReportRuns(const std::vector<Run>& runs) override {
    inner_->ReportRuns(runs);
    for (const Run& run : runs) {
      if (RunSkipped(run)) {
        ++skipped_runs_;
        continue;
      }
      // Time-valued aggregate runs (mean/median/stddev under
      // --benchmark_repetitions) are recorded too — under
      // --benchmark_report_aggregates_only they are the only runs
      // reported. Their benchmark_name() carries the aggregate suffix
      // ("..._mean"), so records stay distinguishable; the detector
      // lookup uses the base name; their `iterations` is the
      // repetition count. Percentage-valued aggregates (cv) are not
      // seconds and would poison time-series consumers — skip them.
      if (run.run_type == Run::RT_Aggregate) {
        if constexpr (requires { run.aggregate_unit; }) {
          if (run.aggregate_unit ==
              benchmark::StatisticUnit::kPercentage) {
            continue;
          }
        }
      }
      bench::BenchRecord record;
      record.name = run.benchmark_name();
      // Under --benchmark_repetitions each repetition reports under
      // the same name; tag them so records stay unique per run.
      if (run.run_type == Run::RT_Iteration && run.repetitions > 1) {
        record.name +=
            StrFormat("@rep%d", static_cast<int>(run.repetition_index));
      }
      std::string base_name = run.run_name.str();
      if (StartsWith(base_name, kDetectorPrefix)) {
        // "BM_DetectorRound/<detector>/<threads>".
        std::string rest = base_name.substr(kDetectorPrefix.size());
        size_t slash = rest.rfind('/');
        record.detector = rest.substr(0, slash);
        if (slash != std::string::npos) {
          record.threads = std::strtoull(rest.c_str() + slash + 1,
                                         nullptr, 10);
        }
        record.dataset = StrFormat("gen-%zux%zu", kDetectorSources,
                                   kDetectorItems);
        record.scale = 1.0;
      } else if (StartsWith(base_name, kBookFullPrefix)) {
        // "BM_IndexRound/book-full/<threads>".
        record.detector = "index";
        record.dataset = "book-full";
        record.scale = kBookFullScale;
        size_t slash = base_name.rfind('/');
        record.threads = std::strtoull(base_name.c_str() + slash + 1,
                                       nullptr, 10);
      } else if (StartsWith(base_name, kSessionRunName) ||
                 StartsWith(base_name, kFusionRunName) ||
                 StartsWith(base_name, kSessionUpdateName) ||
                 StartsWith(base_name, kSessionLoadName) ||
                 StartsWith(base_name, kSessionLoadMappedName) ||
                 StartsWith(base_name, kReportToJsonName)) {
        // Facade-overhead pair + online-update + warm-start anchors
        // (owned and mapped) + the render of the run's report: serial,
        // same configuration.
        record.detector = "index";
        record.dataset = "book-full";
        record.scale = kBookFullScale;
        record.threads = 1;
      } else if (StartsWith(base_name, kShardedDetectPrefix)) {
        // "BM_ShardedDetect/book-cs/<shards>": one INDEX round
        // through the in-process N-shard harness, serial.
        record.detector = "sharded-index";
        record.dataset = "book-cs";
        record.scale = kBookCsScale;
        record.threads = 1;
      }
      double iters =
          run.iterations > 0 ? static_cast<double>(run.iterations) : 1.0;
      record.iterations = static_cast<uint64_t>(run.iterations);
      record.real_seconds = run.real_accumulated_time / iters;
      record.cpu_seconds = run.cpu_accumulated_time / iters;
      auto items = run.counters.find("items_per_second");
      if (items != run.counters.end()) {
        record.items_per_second = items->second.value;
      }
      json_->Add(std::move(record));
    }
  }

 private:
  bench::JsonReporter* json_;
  std::unique_ptr<benchmark::BenchmarkReporter> inner_;
  size_t skipped_runs_ = 0;
};

/// The display reporter --benchmark_format would have chosen. CSV is
/// deprecated upstream and not replicated here.
std::unique_ptr<benchmark::BenchmarkReporter> MakeFormatReporter(
    std::string_view format) {
  if (format == "json") {
    return std::make_unique<benchmark::JSONReporter>();
  }
  if (format != "console") {
    std::fprintf(stderr,
                 "micro_core: unsupported --benchmark_format=%.*s, "
                 "using console\n",
                 static_cast<int>(format.size()), format.data());
  }
  return std::make_unique<benchmark::ConsoleReporter>();
}

}  // namespace
}  // namespace copydetect

int main(int argc, char** argv) {
  using copydetect::CollectingReporter;
  using copydetect::bench::JsonReporter;

  // Peel our --json=<path> / --threads=<N> off before Google Benchmark
  // (which rejects flags it does not know) sees argv, and note
  // --benchmark_format so the display side keeps honoring it.
  std::string json_path;
  std::string format = "console";
  size_t threads = 0;  // 0 = hardware concurrency
  int kept = 1;
  for (int i = 1; i < argc; ++i) {
    std::string_view arg(argv[i]);
    if (arg.rfind("--json=", 0) == 0) {
      json_path = std::string(arg.substr(7));
      continue;
    }
    if (arg.rfind("--threads=", 0) == 0) {
      threads = static_cast<size_t>(
          std::strtoull(arg.data() + arg.find('=') + 1, nullptr, 10));
      continue;
    }
    if (arg.rfind("--benchmark_format=", 0) == 0) {
      format = std::string(arg.substr(arg.find('=') + 1));
    }
    argv[kept++] = argv[i];
  }
  argv[kept] = nullptr;
  argc = kept;
  if (threads == 0) {
    threads = std::max<size_t>(1, std::thread::hardware_concurrency());
    // Auto-detection on a single-core runner still records a >1 point
    // so the speedup curve exists everywhere (the overhead is part of
    // the curve). An explicit --threads=1 stays serial-only.
    if (threads == 1) threads = 2;
  }

  copydetect::RegisterDetectorBenchmarks(threads);
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;

  JsonReporter json("micro_core");
  CollectingReporter reporter(&json,
                              copydetect::MakeFormatReporter(format));
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();

  copydetect::bench::MaybeWriteJson(json, json_path);
  // A JSON artifact missing series (skipped/errored benchmarks) must
  // not pass CI silently.
  if (!json_path.empty() && reporter.skipped_runs() > 0) {
    std::fprintf(stderr,
                 "micro_core: %zu benchmark(s) skipped — %s is "
                 "incomplete\n",
                 reporter.skipped_runs(), json_path.c_str());
    return 4;
  }
  return 0;
}
