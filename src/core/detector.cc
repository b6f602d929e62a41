#include "core/detector.h"

namespace copydetect {

Status DetectionInput::Validate() const {
  if (data == nullptr || overlaps == nullptr || value_probs == nullptr ||
      accuracies == nullptr) {
    return Status::InvalidArgument("DetectionInput has null fields");
  }
  if (value_probs->size() != data->num_slots()) {
    return Status::InvalidArgument(
        "value_probs size does not match slot count");
  }
  if (accuracies->size() != data->num_sources()) {
    return Status::InvalidArgument(
        "accuracies size does not match source count");
  }
  return Status::OK();
}

}  // namespace copydetect
