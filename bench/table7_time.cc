// Table VII: execution time of each method on the four data sets, with
// the paper's improvement chain — SAMPLE1/SAMPLE2/INDEX against
// PAIRWISE, each later row against the row above, and the total
// improvement of the final configuration against PAIRWISE. Why INDEX
// saves time against PAIRWISE on book but not on stock:
// docs/DESIGN.md §6.
#include "bench_util.h"

using namespace copydetect;
using namespace copydetect::bench;

namespace {

struct TimedMethod {
  std::string name;
  double seconds = 0.0;
  std::string improvement;
};

}  // namespace

int main(int argc, char** argv) {
  double scale = 1.0;
  uint64_t seed = 7;
  std::string json_path;
  FlagSet flags("table7_time: Table VII execution-time chain");
  flags.Double("scale", &scale, "data-set scale factor");
  flags.Uint64("seed", &seed, "world generator seed");
  JsonFlag(flags, &json_path);
  flags.ParseOrDie(argc, argv);

  // One record per world and method: detection seconds next to the
  // computations the paper counts, and ns per computation.
  JsonReporter reporter("table7_time");

  TextTable table;
  table.SetHeader({"Dataset", "Method", "Detect time", "Improvement"});

  for (const BenchDataset& spec : DefaultDatasets(scale)) {
    World world = MakeWorld(spec, seed);
    double rate = DefaultSamplingRate(spec.name);

    // Detection seconds of table row `method`, which runs `detector`,
    // on a sample when `r` > 0.
    auto detect_seconds = [&](const char* method, const char* detector,
                              double r = 0.0,
                              SamplingMethod sampling =
                                  SamplingMethod::kScaleSample) {
      const Report report = RunDetector(world, detector, r, sampling, seed);
      reporter.Add({.name = std::string("table7/") + method,
                    .detector = detector,
                    .dataset = spec.name,
                    .scale = spec.scale,
                    .real_seconds = report.fusion.detect_seconds,
                    .cpu_seconds = report.fusion.detect_cpu_seconds,
                    .iterations = 1,
                    .items_per_second = 0.0,
                    .threads = report.threads,
                    .computations = report.counters.Total()});
      return report.fusion.detect_seconds;
    };

    double pairwise = detect_seconds("pairwise", "pairwise");
    double sample1 = detect_seconds("sample1", "pairwise", rate,
                                    SamplingMethod::kByItem);
    double sample2 = detect_seconds(
        "sample2", "pairwise",
        spec.name == "stock-1day" || spec.name == "stock-2wk"
            ? rate
            : rate * 3.0,
        SamplingMethod::kByCell);
    double index = detect_seconds("index", "index");
    double hybrid = detect_seconds("hybrid", "hybrid");
    double incremental = detect_seconds("incremental", "incremental");
    double scalesample =
        detect_seconds("scalesample", "incremental", rate);

    std::vector<TimedMethod> rows = {
        {"pairwise", pairwise, "-"},
        {"sample1", sample1, Improvement(pairwise, sample1)},
        {"sample2", sample2, Improvement(pairwise, sample2)},
        {"index", index, Improvement(pairwise, index)},
        {"hybrid", hybrid, Improvement(index, hybrid)},
        {"incremental", incremental, Improvement(hybrid, incremental)},
        {"scalesample", scalesample,
         Improvement(incremental, scalesample)},
    };
    for (const TimedMethod& row : rows) {
      table.AddRow({spec.name, row.name, HumanSeconds(row.seconds),
                    row.improvement});
    }
    table.AddRow({spec.name, "TOTAL (scalesample vs pairwise)", "",
                  Improvement(pairwise, scalesample)});
  }
  std::printf("%s\n",
              table
                  .Render("Table VII — copy-detection time, full "
                          "fusion run (improvement vs the paper's "
                          "comparison row)")
                  .c_str());
  std::printf(
      "Paper reference: INDEX improves 83-99.6%% over PAIRWISE; HYBRID "
      "a further 2-37%%; INCREMENTAL a further 56-83%%; total "
      "improvement 99.8-99.97%%.\n");

  MaybeWriteJson(reporter, json_path);
  return 0;
}
