// The fuzz entry point for .cdsnap reading (docs/FORMATS.md). Any byte
// string, written to a temporary file, must be accepted by both
// snapshot::Read and snapshot::ReadMapped or refused by both with the
// same Status: they are one decoder over two byte sources. An accepted
// file must decode to the same state in both modes. Neither reader may
// crash, hang or read out of bounds.
//
// The entry point has the libFuzzer signature, so a clang build can
// link it with -fsanitize=fuzzer. Under gcc, tests/fuzz/
// snapshot_replay.cc drives CheckSnapshotBytes with seeded mutations
// (ctest fuzz.snapshot, also run under asan-ubsan).

#include "fuzz/snapshot_fuzz.h"

#include <unistd.h>

#include <cstdio>
#include <cstdlib>

#include "snapshot/snapshot_io.h"

namespace copydetect {
namespace fuzz {
namespace {

[[noreturn]] void Disagree(const std::string& what) {
  std::fprintf(stderr, "snapshot_fuzz: Read and ReadMapped disagree: %s\n",
               what.c_str());
  std::abort();
}

/// The parts of two accepted states a divergent decode would show in.
void ExpectSameState(const snapshot::SessionState& owned,
                     const snapshot::SessionState& mapped) {
  if (owned.generation != mapped.generation ||
      owned.options.size() != mapped.options.size()) {
    Disagree("header or options");
  }
  const Dataset& a = owned.data;
  const Dataset& b = mapped.data;
  if (a.num_sources() != b.num_sources() ||
      a.num_items() != b.num_items() || a.num_slots() != b.num_slots() ||
      a.num_observations() != b.num_observations()) {
    Disagree("data set dimensions");
  }
  for (SlotId v = 0; v < a.num_slots(); ++v) {
    if (a.slot_value(v) != b.slot_value(v) ||
        a.providers(v).size() != b.providers(v).size()) {
      Disagree("slot " + std::to_string(v));
    }
  }
  if (owned.has_overlaps != mapped.has_overlaps ||
      (owned.has_overlaps && owned.overlaps.NumPositivePairs() !=
                                 mapped.overlaps.NumPositivePairs())) {
    Disagree("overlap counts");
  }
  const FusionResult& f = owned.fusion;
  const FusionResult& g = mapped.fusion;
  if (f.value_probs != g.value_probs || f.accuracies != g.accuracies ||
      f.truth != g.truth || f.rounds != g.rounds ||
      f.copies.raw_map().raw_keys() != g.copies.raw_map().raw_keys() ||
      f.copies.NumCopying() != g.copies.NumCopying()) {
    Disagree("fusion result");
  }
}

}  // namespace

std::string TempPath(const std::string& name) {
  const char* dir = std::getenv("TMPDIR");
  return std::string(dir != nullptr && *dir != '\0' ? dir : "/tmp") +
         "/" + std::to_string(getpid()) + "." + name;
}

Status CheckSnapshotBytes(const uint8_t* data, size_t size) {
  static const std::string path = TempPath("snapshot_fuzz.cdsnap");
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr || (size > 0 && std::fwrite(data, 1, size, f) != size) ||
      std::fclose(f) != 0) {
    std::fprintf(stderr, "snapshot_fuzz: cannot write %s\n", path.c_str());
    std::abort();
  }
  const auto owned = snapshot::Read(path);
  const auto mapped = snapshot::ReadMapped(path);
  std::remove(path.c_str());
  if (owned.ok() != mapped.ok()) {
    Disagree(owned.ok()
                 ? "only Read accepts: " + mapped.status().ToString()
                 : "only ReadMapped accepts: " + owned.status().ToString());
  }
  if (!owned.ok()) {
    if (owned.status().ToString() != mapped.status().ToString()) {
      Disagree(owned.status().ToString() + " vs " +
               mapped.status().ToString());
    }
    return owned.status();
  }
  ExpectSameState(*owned, *mapped);
  return Status::OK();
}

}  // namespace fuzz
}  // namespace copydetect

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  copydetect::fuzz::CheckSnapshotBytes(data, size);
  return 0;
}
