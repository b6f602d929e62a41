// copydetect_cli — run the full pipeline from the command line.
//
// Load a CSV data set (source,item,value rows) or generate a synthetic
// world, run copy-aware truth finding through the public Session
// facade with any registered detector, and write the resolved truth,
// learned accuracies and the analyzed copy graph back out as CSV. The
// minimal downstream-user entry point.
//
//   # on your own data
//   ./copydetect_cli --data=observations.csv --detector=hybrid
//       --out-truth=truth.csv --out-copies=copies.csv
//
//   # on a synthetic world, evaluating against the planted truth
//   ./copydetect_cli --generate=book-cs --scale=0.2 --seed=7
//
//   # list the registered detectors
//   ./copydetect_cli --detector=help
//
//   # multi-threaded detection + fusion (0 = all hardware threads)
//   ./copydetect_cli --generate=book-full --threads=0
//
//   # persist the finished session; a later invocation warm-starts
//   # from the file instead of re-running from cold
//   ./copydetect_cli --generate=book-full --save-snapshot=run.cdsnap
//   ./copydetect_cli --load-snapshot=run.cdsnap --out-truth=truth.csv
//
//   # serve a big snapshot zero-copy out of the mapped file
//   ./copydetect_cli --load-snapshot=run.cdsnap --load-mode=mapped
#include <cstdio>
#include <cstring>
#include <optional>
#include <utility>

#include "copydetect/session.h"

using namespace copydetect;

namespace {

// Observation files are CSV by default; a .json/.ndjson/.jsonl
// extension selects the ndjson format (docs/FORMATS.md §JSON). Both
// --data and --save-data honor the same rule.
bool IsJsonPath(const std::string& path) {
  for (const char* ext : {".json", ".ndjson", ".jsonl"}) {
    size_t len = std::strlen(ext);
    if (path.size() >= len &&
        path.compare(path.size() - len, len, ext) == 0) {
      return true;
    }
  }
  return false;
}

StatusOr<Dataset> LoadObservations(const std::string& path) {
  return IsJsonPath(path) ? Dataset::LoadJson(path)
                          : Dataset::LoadCsv(path);
}

Status SaveObservations(const Dataset& data, const std::string& path) {
  return IsJsonPath(path) ? data.SaveJson(path) : data.SaveCsv(path);
}

Status WriteTruthCsv(const std::string& path, const Dataset& data,
                     const Report& report) {
  std::vector<std::vector<std::string>> rows;
  rows.push_back({"item", "value", "probability"});
  for (ItemId d = 0; d < data.num_items(); ++d) {
    SlotId v = report.truth()[d];
    if (v == kInvalidSlot) continue;
    rows.push_back({std::string(data.item_name(d)),
                    std::string(data.slot_value(v)),
                    StrFormat("%.6f", report.fusion.value_probs[v])});
  }
  return WriteCsvFile(path, rows);
}

Status WriteAccuraciesCsv(const std::string& path, const Dataset& data,
                          const Report& report) {
  std::vector<std::vector<std::string>> rows;
  rows.push_back({"source", "accuracy"});
  for (SourceId s = 0; s < data.num_sources(); ++s) {
    rows.push_back({std::string(data.source_name(s)),
                    StrFormat("%.6f", report.accuracies()[s])});
  }
  return WriteCsvFile(path, rows);
}

Status WriteCopiesCsv(const std::string& path, const Dataset& data,
                      const CopyGraph& graph) {
  std::vector<std::vector<std::string>> rows;
  rows.push_back({"cluster", "source_a", "source_b", "kind",
                  "pr_a_copies_b", "elected_original"});
  auto kind_name = [](EdgeKind kind) {
    switch (kind) {
      case EdgeKind::kDirect:
        return "direct";
      case EdgeKind::kCoCopy:
        return "co-copy";
      case EdgeKind::kIndirect:
        return "indirect";
    }
    return "?";
  };
  for (size_t c = 0; c < graph.clusters.size(); ++c) {
    const CopyCluster& cluster = graph.clusters[c];
    for (const ClassifiedEdge& edge : cluster.edges) {
      rows.push_back(
          {StrFormat("%zu", c),
           std::string(data.source_name(edge.a)),
           std::string(data.source_name(edge.b)), kind_name(edge.kind),
           StrFormat("%.6f", edge.pr_a_copies_b),
           std::string(data.source_name(cluster.original))});
    }
  }
  return WriteCsvFile(path, rows);
}

Status RunCli(int argc, char** argv) {
  std::string data_path;
  std::string generate;
  double scale = 0.2;
  uint64_t seed = 7;
  std::string detector_name = "hybrid";
  double alpha = 0.1;
  double s = 0.8;
  double n = 50.0;
  uint64_t max_rounds = 12;
  uint64_t threads = 1;
  std::string out_truth;
  std::string out_accs;
  std::string out_copies;
  std::string save_data;
  std::string save_snapshot;
  std::string load_snapshot;
  std::string load_mode_name = "owned";

  FlagSet flags(
      "copydetect_cli: run the full pipeline from the command line");
  flags.String("data", &data_path,
               "input observations file (CSV; .json/.ndjson = ndjson)");
  flags.String("generate", &generate,
               "synthetic world profile (book-cs, stock-1day, ...)");
  flags.Double("scale", &scale, "generated-world scale factor");
  flags.Uint64("seed", &seed, "world generator seed");
  flags.String("detector", &detector_name,
               "detector registry name ('help' lists them)");
  flags.Double("alpha", &alpha, "a-priori copying probability");
  flags.Double("s", &s, "copy selectivity");
  flags.Double("n", &n, "false values per item");
  flags.Uint64("max-rounds", &max_rounds, "fusion round cap");
  flags.Uint64("threads", &threads,
               "executor width (1 = serial, 0 = all hardware threads)");
  flags.String("out-truth", &out_truth, "write resolved-truth CSV here");
  flags.String("out-accuracies", &out_accs,
               "write learned-accuracies CSV here");
  flags.String("out-copies", &out_copies, "write copy-graph CSV here");
  flags.String("save-data", &save_data,
               "write the observations here (CSV; .json/.ndjson = ndjson)");
  // Snapshot persistence (docs/FORMATS.md): --save-snapshot persists
  // the finished session; --load-snapshot warm-starts from such a
  // file instead of re-parsing + re-running.
  flags.String("save-snapshot", &save_snapshot,
               "persist the finished session here");
  flags.String("load-snapshot", &load_snapshot,
               "warm-start from this snapshot file");
  flags.String("load-mode", &load_mode_name,
               "snapshot backing: owned | mapped");
  // Unknown flags are an error, never a silent fall-through to
  // defaults. The detector list rides along so the most common typo
  // (--detector mis-spellings and friends) is self-correcting.
  Status flag_status = flags.Parse(argc, argv);
  if (!flag_status.ok()) {
    return Status::InvalidArgument(
        flag_status.message() +
        " (detectors, via --detector=<name>: " + ListDetectorsJoined() +
        ")");
  }
  if (flags.help_requested()) {
    std::printf("%s", flags.Help().c_str());
    return Status::OK();
  }

  if (detector_name == "help" || detector_name == "list") {
    std::printf("registered detectors:\n");
    for (const std::string& name : ListDetectors()) {
      std::printf("  %s\n", name.c_str());
    }
    return Status::OK();
  }

  if (load_snapshot.empty() && data_path.empty() == generate.empty()) {
    return Status::InvalidArgument(
        "exactly one of --data=<csv>, --generate=<profile> or "
        "--load-snapshot=<file> is required (profiles: book-cs, "
        "book-full, stock-1day, stock-2wk, book-xl, example)");
  }
  if (!load_snapshot.empty() &&
      (!data_path.empty() || !generate.empty())) {
    return Status::InvalidArgument(
        "--load-snapshot replaces --data/--generate — the data set "
        "lives inside the snapshot file");
  }
  if (load_mode_name != "owned" && load_mode_name != "mapped") {
    return Status::InvalidArgument(
        "--load-mode must be 'owned' or 'mapped', got '" +
        load_mode_name + "'");
  }
  if (!load_snapshot.empty()) {
    // The snapshot fixes the whole session configuration; silently
    // ignoring an explicit override would run with settings the user
    // did not ask for (the same no-fall-through policy as unknown
    // flags).
    for (const char* fixed : {"detector", "alpha", "s", "n",
                              "max-rounds", "threads", "scale",
                              "seed"}) {
      if (flags.Provided(fixed)) {
        return Status::InvalidArgument(
            std::string("--load-snapshot restores the saved session "
                        "configuration; --") +
            fixed + " cannot be overridden on a warm start");
      }
    }
  }

  // ---- Load, generate, or warm-start from a snapshot. ----
  World world;
  bool have_gold = false;
  std::optional<Session> session;
  Report report;
  if (!load_snapshot.empty()) {
    LoadOptions load_options(load_mode_name == "mapped"
                                 ? LoadMode::kMapped
                                 : LoadMode::kOwned);
    auto loaded = Session::Load(load_snapshot, load_options);
    CD_RETURN_IF_ERROR(loaded.status());
    session.emplace(std::move(*loaded));
    world.data = *session->current_data();
    report = session->report();
    std::printf("Warm start: %s (detector %s, %d fused rounds "
                "restored)\n",
                load_snapshot.c_str(), report.detector.c_str(),
                report.rounds());
  } else {
    if (!generate.empty()) {
      auto world_or = MakeWorldByName(generate, scale, seed);
      CD_RETURN_IF_ERROR(world_or.status());
      world = std::move(world_or).value();
      have_gold = true;
      if (n == 50.0) n = world.suggested_n;
    } else {
      auto data = LoadObservations(data_path);
      CD_RETURN_IF_ERROR(data.status());
      world.data = std::move(data).value();
    }

    // ---- Configure and run through the facade. ----
    SessionOptions options;
    options.detector = detector_name;
    options.alpha = alpha;
    options.s = s;
    options.n = n;
    options.max_rounds = static_cast<int>(max_rounds);
    options.threads = static_cast<size_t>(threads);
    // Save needs the session to keep its state past Run.
    options.online_updates = !save_snapshot.empty();

    auto created = Session::Create(options);
    CD_RETURN_IF_ERROR(created.status());
    session.emplace(std::move(*created));
    if (session->threads() > 1) {
      std::printf("Threads: %zu\n", session->threads());
    }

    auto report_or = session->Run(world.data);
    CD_RETURN_IF_ERROR(report_or.status());
    report = std::move(report_or).value();
  }
  if (!save_data.empty()) {
    CD_RETURN_IF_ERROR(SaveObservations(world.data, save_data));
  }

  std::printf("Data: %s\n", ComputeStats(world.data).ToString().c_str());

  std::printf(
      "Fusion: %d rounds (%s), detection %s, %s computations\n",
      report.rounds(), report.converged() ? "converged" : "round cap",
      HumanSeconds(report.fusion.detect_seconds).c_str(),
      WithCommas(report.counters.Total()).c_str());

  // ---- Copy graph (analyzed by the session). ----
  const CopyGraph& graph = report.graph;
  std::printf("Copying: %zu pairs in %zu clusters over %zu sources\n",
              graph.NumPairs(), graph.clusters.size(),
              graph.NumSources());
  for (const CopyCluster& cluster : graph.clusters) {
    std::printf("  original %s <-",
                std::string(world.data.source_name(cluster.original))
                    .c_str());
    for (const CopyEdge& edge : cluster.direct_edges) {
      std::printf(" %s(%.2f)",
                  std::string(world.data.source_name(edge.copier))
                      .c_str(),
                  edge.probability);
    }
    std::printf("\n");
  }

  if (have_gold) {
    std::printf("Gold accuracy: %.3f over %zu items\n",
                world.gold.Accuracy(world.data, report.truth()),
                world.gold.size());
    PrfScores prf =
        ComparePairsToTruth(report.copies(), world.copy_pairs);
    std::printf("Planted copy pairs: recall %.2f (direct), precision "
                "%.2f (closure)\n",
                prf.recall,
                ComparePairsToTruth(report.copies(),
                                    CopyClosure(world.copy_pairs))
                    .precision);
  }

  // ---- Outputs. ----
  if (!out_truth.empty()) {
    CD_RETURN_IF_ERROR(WriteTruthCsv(out_truth, world.data, report));
    std::printf("wrote %s\n", out_truth.c_str());
  }
  if (!out_accs.empty()) {
    CD_RETURN_IF_ERROR(
        WriteAccuraciesCsv(out_accs, world.data, report));
    std::printf("wrote %s\n", out_accs.c_str());
  }
  if (!out_copies.empty()) {
    CD_RETURN_IF_ERROR(WriteCopiesCsv(out_copies, world.data, graph));
    std::printf("wrote %s\n", out_copies.c_str());
  }
  if (!save_snapshot.empty()) {
    CD_RETURN_IF_ERROR(session->Save(save_snapshot));
    std::printf("wrote snapshot %s\n", save_snapshot.c_str());
  }
  return Status::OK();
}

}  // namespace

int main(int argc, char** argv) {
  Status status = RunCli(argc, argv);
  if (!status.ok()) {
    std::fprintf(stderr, "copydetect_cli: %s\n",
                 status.ToString().c_str());
    return 2;
  }
  return 0;
}
