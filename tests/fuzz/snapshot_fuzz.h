#ifndef COPYDETECT_TESTS_FUZZ_SNAPSHOT_FUZZ_H_
#define COPYDETECT_TESTS_FUZZ_SNAPSHOT_FUZZ_H_

// The .cdsnap fuzz target (tests/fuzz/snapshot_fuzz.cc): the libFuzzer
// entry point and the check behind it, which the gcc replay driver
// calls directly.

#include <cstddef>
#include <cstdint>
#include <string>

#include "common/status.h"

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size);

namespace copydetect {
namespace fuzz {

/// Writes `data` to a temporary file and reads it back with
/// snapshot::Read and snapshot::ReadMapped. Aborts unless both accept
/// it and decode the same state, or both refuse it with the same
/// Status; returns that Status.
Status CheckSnapshotBytes(const uint8_t* data, size_t size);

/// `name` under $TMPDIR (or /tmp), prefixed with this process's id.
std::string TempPath(const std::string& name);

}  // namespace fuzz
}  // namespace copydetect

#endif  // COPYDETECT_TESTS_FUZZ_SNAPSHOT_FUZZ_H_
