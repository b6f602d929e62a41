#include "eval/experiment.h"

#include "datagen/motivating_example.h"

namespace copydetect {

StatusOr<World> MakeWorldByName(const std::string& name, double scale,
                                uint64_t seed) {
  if (name == "example") return MotivatingExample();
  WorldConfig config;
  if (!LookupProfile(name, scale, &config)) {
    return Status::NotFound("unknown data set '" + name +
                            "' (want book-cs, book-full, stock-1day, "
                            "stock-2wk, book-xl or example)");
  }
  return GenerateWorld(config, seed);
}

double DefaultSamplingRate(const std::string& dataset_name) {
  return dataset_name == "stock-2wk" ? 0.01 : 0.1;
}

}  // namespace copydetect
