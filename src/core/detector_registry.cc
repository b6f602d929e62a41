#include "core/detector_registry.h"

#include "core/bound.h"
#include "core/fagin_input.h"
#include "core/hybrid.h"
#include "core/incremental.h"
#include "core/index_algo.h"
#include "core/pairwise.h"

namespace copydetect {

namespace {

template <typename D, auto... kArgs>
std::unique_ptr<CopyDetector> Make(const DetectionParams& params) {
  return std::make_unique<D>(params, kArgs...);
}

struct DetectorRow {
  std::string_view name;
  std::string_view alias;  ///< "" when the detector has none
  std::unique_ptr<CopyDetector> (*make)(const DetectionParams&);
};

// Sorted by canonical name. Aliases are older spellings that saved
// session options (docs/FORMATS.md) and scripts may still carry:
// "parallel-index" was INDEX at threads > 1 before every detector ran
// on the session's executor.
constexpr DetectorRow kDetectors[] = {
    {"bound", "", Make<BoundDetector, /*lazy=*/false>},
    {"boundplus", "bound+", Make<BoundDetector, /*lazy=*/true>},
    {"fagin-input", "", Make<FaginInputDetector>},
    {"hybrid", "", Make<HybridDetector>},
    {"incremental", "", Make<IncrementalDetector>},
    {"index", "parallel-index", Make<IndexDetector>},
    {"pairwise", "", Make<PairwiseDetector>},
};

const DetectorRow* Find(std::string_view name) {
  for (const DetectorRow& row : kDetectors) {
    if (row.name == name || (!row.alias.empty() && row.alias == name)) {
      return &row;
    }
  }
  return nullptr;
}

}  // namespace

StatusOr<std::unique_ptr<CopyDetector>> CreateDetector(
    std::string_view name, const DetectionParams& params) {
  const DetectorRow* row = Find(name);
  if (row == nullptr) {
    return Status::NotFound("unknown detector '" + std::string(name) +
                            "' (available: " + ListDetectorsJoined() +
                            ")");
  }
  return row->make(params);
}

std::string ResolveDetector(std::string_view name) {
  const DetectorRow* row = Find(name);
  return row == nullptr ? "" : std::string(row->name);
}

std::vector<std::string> ListDetectors() {
  std::vector<std::string> names;
  for (const DetectorRow& row : kDetectors) names.emplace_back(row.name);
  return names;
}

std::string ListDetectorsJoined() {
  std::string joined;
  for (const std::string& name : ListDetectors()) {
    if (!joined.empty()) joined += ", ";
    joined += name;
  }
  return joined;
}

}  // namespace copydetect
