#ifndef COPYDETECT_TESTS_TEST_UTIL_H_
#define COPYDETECT_TESTS_TEST_UTIL_H_

#include <algorithm>
#include <memory>
#include <string_view>
#include <vector>

#include "core/detector.h"
#include "core/detector_registry.h"
#include "datagen/generator.h"
#include "datagen/motivating_example.h"
#include "datagen/profiles.h"

namespace copydetect {
namespace testutil {

using ::copydetect::World;

/// The running example's parameters (Ex. 2.1): alpha=.1, s=.8, n=50.
inline DetectionParams PaperParams() {
  DetectionParams params;
  params.alpha = 0.1;
  params.s = 0.8;
  params.n = 50.0;
  return params;
}

/// A fresh detector by registry name; dies on an unknown name.
inline std::unique_ptr<CopyDetector> NewDetector(
    std::string_view name, const DetectionParams& params) {
  auto made = CreateDetector(name, params);
  CD_CHECK_OK(made.status());
  return std::move(made).value();
}

/// A fixture bundling the running example with the converged value
/// probabilities (Table III) and accuracies (Table I), wired into a
/// DetectionInput together with the fixture's own overlap counts.
struct ExampleFixture {
  World world;
  std::vector<double> probs;
  std::vector<double> accs;
  OverlapCache overlaps;

  ExampleFixture()
      : world(MotivatingExample()),
        probs(MotivatingValueProbabilities(world.data)),
        accs(MotivatingAccuracies()) {}

  DetectionInput Input() {
    DetectionInput in;
    in.data = &world.data;
    in.overlaps = &overlaps;
    in.value_probs = &probs;
    in.accuracies = &accs;
    return in;
  }
};

/// A small random world for equivalence/property tests: `sources`
/// sources, `items` items, with planted copiers.
inline World SmallWorld(uint64_t seed, size_t sources = 40,
                        size_t items = 200) {
  WorldConfig config;
  config.name = "small";
  config.num_sources = sources;
  config.num_items = items;
  config.false_pool = 10;
  config.min_coverage_items = 4;
  config.coverage = {.frac_small = 0.4,
                     .small_lo = 0.05,
                     .small_hi = 0.2,
                     .big_lo = 0.3,
                     .big_hi = 0.9};
  config.accuracy = {.frac_low = 0.2,
                     .low_lo = 0.1,
                     .low_hi = 0.45,
                     .high_lo = 0.6,
                     .high_hi = 0.95};
  config.copying = {.num_groups = 4,
                    .group_min = 2,
                    .group_max = 3,
                    .selectivity = 0.8,
                    .extra_coverage_frac = 0.05,
                    .chain = false};
  auto world = GenerateWorld(config, seed);
  CD_CHECK_OK(world.status());
  return std::move(world).value();
}

/// Builds a DetectionInput over a world using naive vote-share value
/// probabilities and the planted true accuracies — a realistic
/// mid-iteration state for single-round algorithm tests — plus the
/// overlap counts every round over it shares.
struct WorldInput {
  std::vector<double> probs;
  std::vector<double> accs;
  OverlapCache overlaps;

  explicit WorldInput(const World& world);

  DetectionInput Input(const World& world) {
    DetectionInput in;
    in.data = &world.data;
    in.overlaps = &overlaps;
    in.value_probs = &probs;
    in.accuracies = &accs;
    return in;
  }
};

inline WorldInput::WorldInput(const World& world) {
  const Dataset& data = world.data;
  probs.assign(data.num_slots(), 0.0);
  for (ItemId d = 0; d < data.num_items(); ++d) {
    double total = static_cast<double>(data.item_providers(d).size());
    for (SlotId v = data.slot_begin(d); v < data.slot_end(d); ++v) {
      probs[v] = total == 0.0
                     ? 0.0
                     : 0.9 * static_cast<double>(
                                 data.providers(v).size()) /
                           total;
    }
  }
  accs = world.true_accuracy;
}

/// Sorted copying-pair keys of a result (for set comparison).
inline std::vector<uint64_t> CopySet(const CopyResult& result) {
  std::vector<uint64_t> keys = result.CopyingPairs();
  std::sort(keys.begin(), keys.end());
  return keys;
}

}  // namespace testutil
}  // namespace copydetect

#endif  // COPYDETECT_TESTS_TEST_UTIL_H_
