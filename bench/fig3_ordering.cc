// Figure 3: effect of the index processing order — BYPROVIDER and
// BYCONTRIBUTION as a time ratio against RANDOM ordering, under BOUND
// and under HYBRID.
#include "core/bound.h"   // cd-lint: allow(layering) white-box ordering bench (docs/API.md exemption)
#include "core/hybrid.h"  // cd-lint: allow(layering) white-box ordering bench (docs/API.md exemption)

#include "bench_util.h"
#include "fusion/truth_finder.h"  // cd-lint: allow(layering) white-box ordering bench (docs/API.md exemption)

using namespace copydetect;
using namespace copydetect::bench;

namespace {

double RunWithOrdering(const World& world, const FusionOptions& options,
                       bool hybrid, EntryOrdering ordering,
                       uint64_t seed) {
  std::unique_ptr<CopyDetector> detector;
  if (hybrid) {
    detector = std::make_unique<HybridDetector>(options.params, ordering,
                                                seed);
  } else {
    detector = std::make_unique<BoundDetector>(options.params,
                                               /*lazy=*/false, ordering,
                                               seed);
  }
  auto result = IterativeFusion(options).Run(world.data, detector.get());
  CD_CHECK_OK(result.status());
  return result->detect_seconds;
}

}  // namespace

int main(int argc, char** argv) {
  double scale = 1.0;
  uint64_t seed = 7;
  FlagSet flags("fig3_ordering: Figure 3 index processing order");
  flags.Double("scale", &scale, "data-set scale factor");
  flags.Uint64("seed", &seed, "world generator seed");
  flags.ParseOrDie(argc, argv);

  for (bool hybrid : {false, true}) {
    TextTable table;
    table.SetHeader({"Dataset", "random", "by-provider",
                     "by-contribution", "provider/random",
                     "contribution/random"});
    for (const BenchDataset& spec : DefaultDatasets(scale)) {
      World world = MakeWorld(spec, seed);
      FusionOptions options = SessionOptionsFor(world).ToFusionOptions();
      double random =
          RunWithOrdering(world, options, hybrid,
                          EntryOrdering::kRandom, seed);
      double provider =
          RunWithOrdering(world, options, hybrid,
                          EntryOrdering::kByProvider, seed);
      double contribution =
          RunWithOrdering(world, options, hybrid,
                          EntryOrdering::kByContribution, seed);
      table.AddRow({spec.name, HumanSeconds(random),
                    HumanSeconds(provider), HumanSeconds(contribution),
                    Fmt(provider / random, "%.2f"),
                    Fmt(contribution / random, "%.2f")});
    }
    std::printf("%s\n",
                table
                    .Render(std::string("Figure 3 — ordering vs random, "
                                        "under ") +
                            (hybrid ? "HYBRID" : "BOUND"))
                    .c_str());
  }
  std::printf(
      "Paper reference: BYCONTRIBUTION is fastest (12%% under BOUND, "
      "smaller but still ahead under HYBRID); BYPROVIDER sits between "
      "it and RANDOM.\n");
  return 0;
}
