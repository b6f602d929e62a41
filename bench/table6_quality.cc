// Table VI: copy-detection and truth-discovery quality of the methods,
// all measured against PAIRWISE (the paper's reference), on Book-CS and
// Stock-1day stand-ins.
//
// Columns: detection precision / recall / F vs PAIRWISE; fusion
// accuracy on the gold standard; fusion difference and accuracy
// variance vs PAIRWISE.
#include "bench_util.h"

using namespace copydetect;
using namespace copydetect::bench;

namespace {

struct MethodResult {
  std::string name;
  Report report;
};

void PrintQualityReport(const World& world, const std::string& dataset,
            const std::vector<MethodResult>& methods,
            const Report& reference) {
  TextTable table;
  table.SetHeader({"Method", "Prec", "Rec", "F-msr", "Accu",
                   "Fusion diff", "Accu var"});
  double ref_acc =
      world.gold.Accuracy(world.data, reference.fusion.truth);
  table.AddRow({"pairwise", "-", "-", "-", Fmt(ref_acc), "-", "-"});
  for (const MethodResult& m : methods) {
    PrfScores prf =
        ComparePairs(m.report.fusion.copies, reference.fusion.copies);
    table.AddRow(
        {m.name, Fmt(prf.precision), Fmt(prf.recall), Fmt(prf.f1),
         Fmt(world.gold.Accuracy(world.data, m.report.fusion.truth)),
         Fmt(FusionDifference(world.data, m.report.fusion.truth,
                              reference.fusion.truth)),
         Fmt(AccuracyVariance(m.report.fusion.accuracies,
                              reference.fusion.accuracies), "%.4f")});
  }
  std::printf("%s\n",
              table.Render("Table VI — " + dataset).c_str());
}

}  // namespace

int main(int argc, char** argv) {
  double scale = 1.0;
  uint64_t seed = 7;
  FlagSet flags("table6_quality: Table VI detection/fusion quality");
  flags.Double("scale", &scale, "data-set scale factor");
  flags.Uint64("seed", &seed, "world generator seed");
  flags.ParseOrDie(argc, argv);

  for (const BenchDataset& spec : QualityDatasets(scale)) {
    World world = MakeWorld(spec, seed);
    double rate = DefaultSamplingRate(spec.name);

    auto run = [&](const char* detector, double r = 0.0,
                   SamplingMethod method = SamplingMethod::kScaleSample) {
      return RunDetector(world, detector, r, method, seed);
    };

    Report reference = run("pairwise");
    std::vector<MethodResult> methods;
    // SAMPLE1/SAMPLE2: naive sampling + PAIRWISE (§VI-A).
    methods.push_back({"sample1 (by-item)",
                       run("pairwise", rate, SamplingMethod::kByItem)});
    methods.push_back(
        {"sample2 (by-cell)",
         run("pairwise", spec.name == "stock-1day" ? rate : rate * 3.0,
             SamplingMethod::kByCell)});
    methods.push_back({"index", run("index")});
    methods.push_back({"hybrid", run("hybrid")});
    methods.push_back({"incremental", run("incremental")});
    methods.push_back({"scalesample", run("incremental", rate)});

    PrintQualityReport(world, spec.name + StrFormat(" (scale %.2f)", spec.scale),
           methods, reference);
  }
  std::printf(
      "Paper reference (Table VI): INDEX = exact match to PAIRWISE "
      "(P=R=F=1, diff=0); HYBRID/INCREMENTAL F >= .97 with tiny fusion "
      "differences; SCALESAMPLE F ~ .88/.95; naive sampling far worse "
      "on Book-CS (F ~ .26-.78).\n");
  return 0;
}
