// Ablations of the design choices docs/DESIGN.md §5 calls out:
//   (a) the tail set E̅ (skip pairs sharing only weak values) on/off;
//   (b) the HYBRID threshold (items shared before switching from INDEX
//       bookkeeping to BOUND+), swept around the paper's 16;
//   (c) the §VIII parallel index scan: INDEX on the session executor,
//       thread sweep.
#include "core/bound.h"  // cd-lint: allow(layering) white-box ablation bench (docs/API.md exemption)

#include "bench_util.h"
#include "fusion/truth_finder.h"  // cd-lint: allow(layering) white-box ablation bench (docs/API.md exemption)

using namespace copydetect;
using namespace copydetect::bench;

namespace {

/// HYBRID via the scan engine with explicit config knobs.
class ConfiguredScanDetector : public CopyDetector {
 public:
  ConfiguredScanDetector(const DetectionParams& params, bool respect_tail)
      : CopyDetector(params), respect_tail_(respect_tail) {}
  Status DetectRound(const DetectionInput& in, int round,
                     CopyResult* out) override {
    (void)round;
    ScanConfig config;
    config.lazy_bounds = true;
    config.hybrid_threshold = params_.hybrid_threshold;
    config.respect_tail = respect_tail_;
    return BoundedScan(in, params_, config, &counters_, out, nullptr,
                       nullptr);
  }

 private:
  bool respect_tail_;
};

}  // namespace

int main(int argc, char** argv) {
  double scale = 1.0;
  uint64_t seed = 7;
  FlagSet flags("ablation: docs/DESIGN.md §5 design-choice ablations");
  flags.Double("scale", &scale, "data-set scale factor");
  flags.Uint64("seed", &seed, "world generator seed");
  flags.ParseOrDie(argc, argv);

  // --- (a) tail set on/off. ---
  TextTable tail;
  tail.SetHeader({"Dataset", "tail on: time", "pairs", "tail off: time",
                  "pairs"});
  for (const BenchDataset& spec : DefaultDatasets(scale)) {
    World world = MakeWorld(spec, seed);
    FusionOptions options = SessionOptionsFor(world).ToFusionOptions();
    ConfiguredScanDetector with_tail(options.params, true);
    ConfiguredScanDetector without_tail(options.params, false);
    auto a = IterativeFusion(options).Run(world.data, &with_tail);
    auto b = IterativeFusion(options).Run(world.data, &without_tail);
    CD_CHECK_OK(a.status());
    CD_CHECK_OK(b.status());
    tail.AddRow({spec.name, HumanSeconds(a->detect_seconds),
                 WithCommas(with_tail.counters().pairs_tracked),
                 HumanSeconds(b->detect_seconds),
                 WithCommas(without_tail.counters().pairs_tracked)});
  }
  std::printf("%s\n",
              tail.Render("Ablation (a) — tail set E̅ on/off (HYBRID)")
                  .c_str());

  // --- (b) hybrid threshold sweep. ---
  TextTable sweep;
  sweep.SetHeader({"Dataset", "threshold", "computations (M)", "time"});
  for (const BenchDataset& spec : QualityDatasets(scale)) {
    World world = MakeWorld(spec, seed);
    for (size_t threshold : {0UL, 4UL, 16UL, 64UL, 256UL}) {
      SessionOptions options = SessionOptionsFor(world);
      options.detector = "hybrid";
      options.hybrid_threshold = threshold;
      Report report = RunSession(options, world.data);
      sweep.AddRow({spec.name, StrFormat("%zu", threshold),
                    Millions(report.counters.Total()),
                    HumanSeconds(report.fusion.detect_seconds)});
    }
  }
  std::printf(
      "%s\n",
      sweep.Render("Ablation (b) — HYBRID threshold sweep (paper: 16)")
          .c_str());

  // --- (c) parallel scan thread sweep on the largest data set. ---
  TextTable par;
  par.SetHeader({"Threads", "detect time", "speedup vs 1"});
  {
    World world = MakeWorld(DefaultDatasets(scale).back(), seed);
    SessionOptions options = SessionOptionsFor(world, /*max_rounds=*/4);
    options.detector = "index";
    double base = 0.0;
    for (size_t threads : {1UL, 2UL, 4UL, 8UL, 16UL}) {
      options.threads = threads;
      double secs = RunSession(options, world.data).fusion.detect_seconds;
      if (threads == 1) base = secs;
      par.AddRow({StrFormat("%zu", threads), HumanSeconds(secs),
                  Fmt(base / secs, "%.2fx")});
    }
  }
  std::printf("%s\n",
              par.Render("Ablation (c) — §VIII parallel index scan "
                         "(stock-2wk)")
                  .c_str());
  return 0;
}
