#ifndef COPYDETECT_BENCH_JSON_REPORTER_H_
#define COPYDETECT_BENCH_JSON_REPORTER_H_

// Machine-readable output for the bench harnesses.
//
// A harness that opts in (micro_core, scaling, table7_time and
// table8_incremental today) accepts --json=<path>; when set, it appends one BenchRecord per measured
// configuration to a JsonReporter and writes a single JSON document
// at exit. The schema is deliberately flat so
// the perf-trajectory files (BENCH_micro.json, BENCH_scaling.json, …)
// diff and plot trivially:
//
//   {
//     "benchmark": "micro_core",
//     "schema_version": 5,
//     "host_cpus": 4, "build_type": "Release", "sanitize": "",
//     "records": [
//       {"name": "...", "detector": "pairwise", "dataset": "book-cs",
//        "scale": 0.5, "real_seconds": 1.2e-3, "cpu_seconds": 1.1e-3,
//        "iterations": 100, "items_per_second": 0.0, "threads": 1},
//       ...
//     ]
//   }
//
// `detector` is empty for primitive micro-benchmarks; `real_seconds`
// is per iteration (seconds per operation for micro-benchmarks, total
// detection seconds with iterations == 1 for the harness tables).
// For micro_core aggregate records (--benchmark_repetitions), the
// name carries the aggregate suffix ("..._mean") and `iterations` is
// the repetition count.
//
// schema_version 2 added `threads`: the executor width the measured
// configuration ran with (1 = the serial path). Records with equal
// name/detector/dataset/scale but different `threads` form the
// speedup curve of one configuration.
//
// schema_version 3 added per-operation latency percentiles for a load
// harness that has since been retired; no writer emits them any more.
//
// schema_version 4 adds the host block cdbench's output carries:
// `host_cpus` (hardware threads of the measuring host), `build_type`
// (CMAKE_BUILD_TYPE) and `sanitize` (COPYDETECT_SANITIZE, empty for
// an unsanitized build), so a committed BENCH file says what produced
// it. Records are unchanged; tools/bench_compare.py reads versions 2
// and 4 alike.
//
// schema_version 5 adds, on the records of a harness that counts the
// paper's computations (table7_time), `computations` (Counters::Total()
// of the measured run) and `ns_per_computation` (real_seconds per
// computation, in ns). Records without a count omit both, so
// micro_core and scaling records read as in version 4.

#include <cstdint>
#include <string>
#include <vector>

namespace copydetect {
namespace bench {

struct BenchRecord {
  std::string name;
  std::string detector;
  std::string dataset;
  double scale = 0.0;
  double real_seconds = 0.0;
  double cpu_seconds = 0.0;
  uint64_t iterations = 1;
  double items_per_second = 0.0;
  uint64_t threads = 1;  ///< executor width (1 = serial path)
  uint64_t computations = 0;  ///< Counters::Total(); 0 = not counted
};

/// One (scenario, detector) quality measurement for QUALITY.json —
/// the quality-trajectory sibling of BenchRecord. Flat for the same
/// reason: tools/bench_compare.py --quality diffs two documents
/// record-by-record and fails CI on recall/precision/accuracy
/// regressions, so speed work cannot silently trade away quality.
///
///   {
///     "benchmark": "quality_sweep",
///     "schema_version": 1,
///     "records": [
///       {"scenario": "adaptive-switch", "detector": "hybrid",
///        "scale": 0.5, "precision": 1.0, "recall": 0.92, "f1": 0.958,
///        "fusion_accuracy": 0.91, "output_pairs": 24,
///        "reference_pairs": 26},
///       ...
///     ]
///   }
///
/// `precision` is measured against the clique closure of the planted
/// pairs and `recall` against the direct edges (see
/// eval/quality.h:ScoreCopyPairs).
struct QualityRecord {
  std::string scenario;
  std::string detector;
  double scale = 0.0;
  double precision = 0.0;
  double recall = 0.0;
  double f1 = 0.0;
  double fusion_accuracy = 0.0;
  uint64_t output_pairs = 0;     ///< detected direct pairs
  uint64_t reference_pairs = 0;  ///< planted direct pairs
};

/// Collects QualityRecords and writes the QUALITY.json document.
class QualityReporter {
 public:
  explicit QualityReporter(std::string benchmark_name);

  void Add(QualityRecord record);

  bool empty() const { return records_.empty(); }
  size_t size() const { return records_.size(); }

  /// Renders the full document (trailing newline included).
  std::string ToJson() const;

  /// Writes the document to `path`; false (with a stderr message) on
  /// IO failure.
  bool WriteFile(const std::string& path) const;

 private:
  std::string benchmark_name_;
  std::vector<QualityRecord> records_;
};

class JsonReporter {
 public:
  explicit JsonReporter(std::string benchmark_name);

  void Add(BenchRecord record);

  bool empty() const { return records_.empty(); }
  size_t size() const { return records_.size(); }

  /// Renders the full document (trailing newline included).
  std::string ToJson() const;

  /// Writes the document to `path`; false (with a stderr message) on
  /// IO failure.
  bool WriteFile(const std::string& path) const;

 private:
  std::string benchmark_name_;
  std::vector<BenchRecord> records_;
};

}  // namespace bench
}  // namespace copydetect

#endif  // COPYDETECT_BENCH_JSON_REPORTER_H_
