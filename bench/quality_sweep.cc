// quality_sweep — the quality-gate harness over the adversarial
// scenario library (datagen/scenarios.h).
//
// Runs every registered scenario through every swept detector, scores
// the detected copy graph against the planted pairs (precision vs the
// clique closure, recall vs the direct edges — eval/quality.h) and
// the fused truth against the gold standard, and prints one table per
// scenario. With --json=<path> it also writes QUALITY.json
// (json_reporter.h:QualityRecord); the quality-gate CI job compares
// that against the committed baseline via
//
//   tools/bench_compare.py --quality bench/baselines/QUALITY.json
//       build/QUALITY.json
//
// so a perf or refactoring PR cannot silently trade away detection
// recall on adaptive, noisy, colluding or churn-heavy sources.
//
//   ./quality_sweep                        # all scenarios, default set
//   ./quality_sweep --scenarios=churn-feed --detectors=hybrid
//   ./quality_sweep --scale=1 --seed=7 --json=QUALITY.json
#include <utility>

#include "bench_util.h"

using namespace copydetect;
using namespace copydetect::bench;

namespace {

// The swept detectors: the paper's quality set (Table VI) — the
// reference baseline, the exact index variant and the two approximate
// accelerations whose quality the gate must hold.
constexpr const char* kDefaultDetectors = "pairwise,index,hybrid,incremental";

}  // namespace

int main(int argc, char** argv) {
  double scale = 0.5;
  uint64_t seed = 7;
  std::string scenarios_csv;
  std::string detectors_csv = kDefaultDetectors;
  std::string json_path;
  FlagSet flags(
      "quality_sweep: detection/fusion quality on the adversarial "
      "scenario library");
  flags.Double("scale", &scale, "scenario scale factor");
  flags.Uint64("seed", &seed, "scenario generator seed");
  flags.String("scenarios", &scenarios_csv,
               "comma-separated scenario names (default: all)");
  flags.String("detectors", &detectors_csv,
               "comma-separated detector names to sweep");
  JsonFlag(flags, &json_path);
  flags.ParseOrDie(argc, argv);

  std::vector<std::string> scenario_names =
      scenarios_csv.empty() ? ScenarioNames() : Split(scenarios_csv, ',');
  std::vector<std::string> detectors = Split(detectors_csv, ',');
  for (const std::string& name : detectors) {
    SessionOptions options;
    options.detector = name;
    Status valid = options.Validate();
    if (!valid.ok()) {
      std::fprintf(stderr, "quality_sweep: %s\n",
                   valid.ToString().c_str());
      return 2;
    }
  }

  QualityReporter reporter("quality_sweep");
  for (const std::string& name : scenario_names) {
    auto scenario_or = MakeScenario(name, scale, seed);
    CD_CHECK_OK(scenario_or.status());
    const Scenario& scenario = *scenario_or;

    TextTable table;
    table.SetHeader({"Detector", "Prec", "Rec", "F-msr", "Accu",
                     "Pairs", "Rounds", "Time"});
    for (const std::string& name : detectors) {
      Report report = RunDetector(scenario.world, name);
      ScenarioResult result = ScoreScenario(scenario, report.fusion);
      table.AddRow({report.detector, Fmt(result.pairs.precision),
                    Fmt(result.pairs.recall), Fmt(result.pairs.f1),
                    Fmt(result.fusion_accuracy),
                    StrFormat("%zu/%zu", result.pairs.output_pairs,
                              result.pairs.reference_pairs),
                    StrFormat("%d", result.rounds),
                    HumanSeconds(result.seconds)});

      QualityRecord record;
      record.scenario = scenario.name;
      record.detector = report.detector;
      record.scale = scale;
      record.precision = result.pairs.precision;
      record.recall = result.pairs.recall;
      record.f1 = result.pairs.f1;
      record.fusion_accuracy = result.fusion_accuracy;
      record.output_pairs = result.pairs.output_pairs;
      record.reference_pairs = result.pairs.reference_pairs;
      reporter.Add(std::move(record));
    }
    std::printf("%s\n",
                table
                    .Render(StrFormat(
                        "Scenario %s (scale %.2f, %zu deltas, %zu "
                        "planted pairs)",
                        scenario.name.c_str(), scale,
                        scenario.deltas.size(),
                        scenario.world.copy_pairs.size()))
                    .c_str());
  }

  if (!json_path.empty()) {
    if (reporter.empty()) {
      std::fprintf(stderr,
                   "quality_sweep: no records measured — refusing to "
                   "write %s\n",
                   json_path.c_str());
      return 4;
    }
    if (!reporter.WriteFile(json_path)) return 3;
    std::fprintf(stderr, "wrote %zu records to %s\n", reporter.size(),
                 json_path.c_str());
  }
  return 0;
}
