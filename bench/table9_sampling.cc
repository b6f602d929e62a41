// Table IX: SCALESAMPLE against the naive BYITEM / BYCELL strategies
// at matched effective rates, detection quality vs INDEX (the paper's
// baseline for this table), with INCREMENTAL under every sample.
#include "bench_util.h"

using namespace copydetect;
using namespace copydetect::bench;

int main(int argc, char** argv) {
  double scale = 1.0;
  uint64_t seed = 7;
  FlagSet flags("table9_sampling: Table IX sampling strategies");
  flags.Double("scale", &scale, "data-set scale factor");
  flags.Uint64("seed", &seed, "world generator seed");
  flags.ParseOrDie(argc, argv);

  TextTable table;
  table.SetHeader({"Dataset", "Method", "items kept", "cells kept",
                   "Prec", "Rec", "F-msr"});

  for (const BenchDataset& spec : QualityDatasets(scale)) {
    World world = MakeWorld(spec, seed);
    double rate = DefaultSamplingRate(spec.name);

    Report reference = RunDetector(world, "index");

    // The sample a SampledDetector draws for `method` at `r`: the
    // draw is deterministic in (data, spec), so this is the sample
    // the run below detects on.
    auto sample = [&](SamplingMethod method, double r) {
      SampleSpec sample_spec;
      sample_spec.method = method;
      sample_spec.rate = r;
      sample_spec.seed = seed;
      auto sampled = SampleDataset(world.data, sample_spec);
      CD_CHECK_OK(sampled.status());
      return std::move(sampled).value();
    };

    // SCALESAMPLE first: its achieved item/cell fractions set the
    // rates for the naive strategies (the paper's fairness rule).
    SampledData probe = sample(SamplingMethod::kScaleSample, rate);

    struct Entry {
      const char* name;
      SamplingMethod method;
      double r;
    };
    const Entry entries[] = {
        {"scalesample", SamplingMethod::kScaleSample, rate},
        {"by-item", SamplingMethod::kByItem, probe.item_fraction},
        {"by-cell", SamplingMethod::kByCell, probe.cell_fraction},
    };
    for (const Entry& e : entries) {
      Report report = RunDetector(world, "incremental", e.r, e.method, seed);
      SampledData kept = sample(e.method, e.r);
      PrfScores prf =
          ComparePairs(report.fusion.copies, reference.fusion.copies);
      table.AddRow({spec.name, e.name,
                    Fmt(kept.item_fraction * 100.0, "%.0f%%"),
                    Fmt(kept.cell_fraction * 100.0, "%.0f%%"),
                    Fmt(prf.precision), Fmt(prf.recall), Fmt(prf.f1)});
    }
  }
  std::printf("%s\n",
              table.Render("Table IX — sampling strategies "
                           "(quality vs INDEX)")
                  .c_str());
  std::printf(
      "Paper reference: on Book-CS SCALESAMPLE F=.88 beats BYITEM .67 "
      "and BYCELL .78; on Stock-1day all three tie (F=.96) because "
      "every source has high coverage.\n");
  return 0;
}
