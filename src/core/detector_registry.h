#ifndef COPYDETECT_CORE_DETECTOR_REGISTRY_H_
#define COPYDETECT_CORE_DETECTOR_REGISTRY_H_

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "core/detector.h"

namespace copydetect {

// The one place a copy-detection algorithm is named: a sorted table of
// {canonical name, alias, factory} rows in detector_registry.cc, one
// row per built-in detector, so adding an algorithm means adding one
// row. The public facade (copydetect/session.h) resolves
// SessionOptions::detector and the CLI's --detector=<name> here;
// ListDetectors() feeds --detector=help and error messages.

/// Builds a fresh detector by canonical name or alias. NotFound
/// (listing every canonical name) for unknown spellings.
StatusOr<std::unique_ptr<CopyDetector>> CreateDetector(
    std::string_view name, const DetectionParams& params);

/// Canonical name for `name` (resolving aliases); "" when unknown.
std::string ResolveDetector(std::string_view name);

/// Canonical names, sorted; aliases are not listed.
std::vector<std::string> ListDetectors();

/// The same list joined for error messages / --detector=help:
/// "bound, boundplus, fagin-input, ...".
std::string ListDetectorsJoined();

}  // namespace copydetect

#endif  // COPYDETECT_CORE_DETECTOR_REGISTRY_H_
