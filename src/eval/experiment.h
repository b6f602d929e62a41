#ifndef COPYDETECT_EVAL_EXPERIMENT_H_
#define COPYDETECT_EVAL_EXPERIMENT_H_

#include <string>

#include "datagen/generator.h"

namespace copydetect {

/// Generates one of the paper's four data-set stand-ins by name
/// ("book-cs", "book-full", "stock-1day", "stock-2wk") at the given
/// scale. Also accepts "example" for the running example.
StatusOr<World> MakeWorldByName(const std::string& name, double scale,
                                uint64_t seed);

/// The default per-data-set sampling rates of §VI (SAMPLE1 /
/// SCALESAMPLE): 1% on Stock-2wk, 10% elsewhere.
double DefaultSamplingRate(const std::string& dataset_name);

}  // namespace copydetect

#endif  // COPYDETECT_EVAL_EXPERIMENT_H_
