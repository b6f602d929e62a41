#ifndef COPYDETECT_BENCH_BENCH_UTIL_H_
#define COPYDETECT_BENCH_BENCH_UTIL_H_

// Shared scaffolding for the table/figure reproduction harnesses.
//
// Every harness runs with no arguments at a scale that finishes in
// seconds-to-minutes on a laptop and accepts --scale=<f> / --seed=<k>
// to move toward the paper's full sizes. Absolute numbers differ from
// the paper (C++ vs Java, synthetic vs crawled data, smaller default
// scale); the *shapes* — who wins, by what order of magnitude — are
// the reproduction target. See EXPERIMENTS.md.

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "copydetect/session.h"
#include "json_reporter.h"

namespace copydetect {
namespace bench {

struct BenchDataset {
  std::string name;
  double scale;  // relative to the paper's full size
};

/// The four evaluation data sets at bench-default scales. `scale`
/// multiplies each data set's default.
inline std::vector<BenchDataset> DefaultDatasets(double scale) {
  return {
      {"book-cs", 0.5 * scale},
      {"stock-1day", 0.2 * scale},
      {"book-full", 0.05 * scale},
      {"stock-2wk", 0.04 * scale},
  };
}

/// The two small data sets the paper uses for quality tables.
inline std::vector<BenchDataset> QualityDatasets(double scale) {
  return {
      {"book-cs", 0.5 * scale},
      {"stock-1day", 0.2 * scale},
  };
}

/// Standard configuration for a generated world: the paper's alpha
/// and s, with n matched to the generator's false pool. White-box
/// harnesses that drive IterativeFusion with a hand-built detector
/// take its ToFusionOptions().
inline SessionOptions SessionOptionsFor(const World& world,
                                        int max_rounds = 8) {
  SessionOptions options;
  options.alpha = 0.1;
  options.s = 0.8;
  options.n = world.suggested_n;
  options.max_rounds = max_rounds;
  options.epsilon = 1e-4;
  return options;
}

/// Generates a bench world, dying on error.
inline World MakeWorld(const BenchDataset& spec, uint64_t seed) {
  auto world = MakeWorldByName(spec.name, spec.scale, seed);
  CD_CHECK_OK(world.status());
  return std::move(world).value();
}

/// One-shot Session run of `options` over `data`, dying on error.
inline Report RunSession(const SessionOptions& options,
                         const Dataset& data) {
  auto session = Session::Create(options);
  CD_CHECK_OK(session.status());
  auto report = session->Run(data);
  CD_CHECK_OK(report.status());
  return std::move(report).value();
}

/// The standard one-shot run of `detector` over `world`. A nonzero
/// `sample_rate` runs it on a §VI sample drawn by `method` with
/// `sample_seed`.
inline Report RunDetector(
    const World& world, const std::string& detector,
    double sample_rate = 0.0,
    SamplingMethod method = SamplingMethod::kScaleSample,
    uint64_t sample_seed = 42) {
  SessionOptions options = SessionOptionsFor(world);
  options.detector = detector;
  options.sample_rate = sample_rate;
  options.sample_method = method;
  options.sample_seed = sample_seed;
  return RunSession(options, world.data);
}

inline std::string Fmt(double v, const char* fmt = "%.3f") {
  return StrFormat(fmt, v);
}

inline std::string Millions(uint64_t n) {
  return StrFormat("%.3f", static_cast<double>(n) / 1e6);
}

/// Percent improvement of `now` over `before` ("99.5%").
inline std::string Improvement(double before, double now) {
  if (before <= 0.0) return "-";
  double frac = 1.0 - now / before;
  return StrFormat("%.1f%%", frac * 100.0);
}

/// Registers the shared --json=<path> flag on a harness's FlagSet
/// (harnesses opt in by calling this before ParseOrDie). Empty (the
/// default) means human-readable output only.
inline void JsonFlag(FlagSet& flags, std::string* path) {
  flags.String("json", path, "write BENCH JSON records here");
}

/// Writes `reporter` to `path` when --json was given; exits non-zero
/// on IO failure or when nothing was measured, so CI catches a
/// missing or hollow perf artifact.
inline void MaybeWriteJson(const JsonReporter& reporter,
                           const std::string& path) {
  if (path.empty()) return;
  if (reporter.empty()) {
    std::fprintf(stderr,
                 "json_reporter: no records measured — refusing to "
                 "write %s\n",
                 path.c_str());
    std::exit(4);
  }
  if (!reporter.WriteFile(path)) std::exit(3);
  // stderr so machine-readable stdout (--benchmark_format=json on
  // micro_core) stays parseable.
  std::fprintf(stderr, "wrote %zu records to %s\n", reporter.size(),
               path.c_str());
}

}  // namespace bench
}  // namespace copydetect

#endif  // COPYDETECT_BENCH_BENCH_UTIL_H_
