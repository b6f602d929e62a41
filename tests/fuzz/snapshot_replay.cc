// The gcc driver of tests/fuzz/snapshot_fuzz.cc, run as the ctest
// fuzz.snapshot. It replays two seed files and a fixed number of
// seeded mutations of each through CheckSnapshotBytes, the check
// behind LLVMFuzzerTestOneInput:
//  * the seeds: a fresh version-3 Session::Save of an online INDEX
//    session on the paper's motivating example, and the committed
//    version-2 tests/data/v2_tape_golden.cdsnap;
//  * byte flips, re-sealed with the spec checksum of the file's version
//    byte (SpecHash64) so they get past the checksums to structural
//    validation;
//  * truncations, which must all be refused;
//  * splices of a head of one seed onto a tail of either, re-sealed.
// CheckSnapshotBytes aborts when the two readers disagree. The driver
// fails when a seed does not load, a truncation loads, or the
// re-sealed mutations of a seed are never accepted or never refused
// past the checksums (then the seal does not match the reader's).

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "common/random.h"
#include "copydetect/session.h"
#include "datagen/motivating_example.h"
#include "fuzz/snapshot_fuzz.h"
#include "legacy_tape.h"

namespace copydetect {
namespace {

using Bytes = std::vector<uint8_t>;

constexpr int kFlipsPerSeed = 2000;
constexpr int kTruncationsPerSeed = 300;
constexpr int kSplicesPerSeed = 700;

Bytes ReadBytes(const std::string& path) {
  Bytes bytes;
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return bytes;
  uint8_t buffer[4096];
  size_t n;
  while ((n = std::fread(buffer, 1, sizeof(buffer), f)) > 0) {
    bytes.insert(bytes.end(), buffer, buffer + n);
  }
  std::fclose(f);
  return bytes;
}

/// A fresh Session::Save: every section, copies and overlap counts.
Bytes FreshSnapshot() {
  World world = MotivatingExample();
  SessionOptions options;
  options.detector = "index";
  options.online_updates = true;
  auto session = Session::Create(options);
  CD_CHECK_OK(session.status());
  CD_CHECK_OK(session->Run(world.data).status());
  const std::string path = fuzz::TempPath("snapshot_replay_seed.cdsnap");
  CD_CHECK_OK(session->Save(path));
  Bytes bytes = ReadBytes(path);
  std::remove(path.c_str());
  return bytes;
}

uint32_t U32At(const Bytes& b, size_t at) {
  uint32_t v = 0;
  std::memcpy(&v, b.data() + at, 4);
  return v;
}

uint64_t U64At(const Bytes& b, size_t at) {
  uint64_t v = 0;
  std::memcpy(&v, b.data() + at, 8);
  return v;
}

/// Re-seals every in-bounds section checksum, then the meta checksum,
/// with the checksum the version byte names. A mutated table can make
/// a section overlap the table itself; such a file may stay unsealed.
void Reseal(Bytes* b) {
  if (b->size() < testutil::kFileHeaderSize) return;
  const uint32_t version = testutil::FileVersion(*b);
  const uint32_t count = U32At(*b, 24);
  const size_t table_end =
      testutil::kFileHeaderSize +
      static_cast<size_t>(count) * testutil::kTableEntrySize;
  if (count == 0 || count > 64 || b->size() < table_end + 8) return;
  for (uint32_t i = 0; i < count; ++i) {
    const size_t entry =
        testutil::kFileHeaderSize + i * testutil::kTableEntrySize;
    const uint64_t offset = U64At(*b, entry + 8);
    const uint64_t size = U64At(*b, entry + 16);
    if (offset > b->size() || size > b->size() - offset) continue;
    const uint64_t sum =
        testutil::SpecHash64(version, b->data() + offset, size);
    std::memcpy(b->data() + entry + 24, &sum, 8);
  }
  const uint64_t meta = testutil::SpecHash64(version, b->data(), table_end);
  std::memcpy(b->data() + table_end, &meta, 8);
}

struct Tally {
  int accepted = 0;
  int refused_past_checksums = 0;
};

/// Runs one input through the fuzz check and tallies the verdict the
/// two readers agreed on.
void Replay(const Bytes& input, Tally* tally) {
  const Status status = fuzz::CheckSnapshotBytes(input.data(), input.size());
  if (status.ok()) {
    ++tally->accepted;
  } else if (status.message().find("checksum mismatch") ==
             std::string::npos) {
    ++tally->refused_past_checksums;
  }
}

int Run() {
  const std::vector<std::pair<const char*, Bytes>> seeds = {
      {"fresh version-3 save", FreshSnapshot()},
      {"v2_tape_golden.cdsnap",
       ReadBytes(std::string(CD_TEST_DATA_DIR) + "/v2_tape_golden.cdsnap")},
  };
  Rng rng(0x5eed);
  int failures = 0;
  int inputs = 0;
  for (const auto& [name, seed] : seeds) {
    Tally pristine;
    Replay(seed, &pristine);
    ++inputs;
    if (seed.size() < 64 || pristine.accepted != 1) {
      std::fprintf(stderr, "fuzz.snapshot: seed %s does not load\n", name);
      ++failures;
      continue;
    }
    Tally resealed;
    Tally truncated;
    for (int i = 0; i < kFlipsPerSeed; ++i) {
      Bytes input = seed;
      const int flips = 1 + static_cast<int>(rng.NextBelow(4));
      for (int f = 0; f < flips; ++f) {
        input[rng.NextBelow(input.size())] ^=
            static_cast<uint8_t>(1u << rng.NextBelow(8));
      }
      Reseal(&input);
      Replay(input, &resealed);
    }
    for (int i = 0; i < kTruncationsPerSeed; ++i) {
      Replay(Bytes(seed.begin(), seed.begin() + static_cast<ptrdiff_t>(
                                                    rng.NextBelow(seed.size()))),
             &truncated);
    }
    for (int i = 0; i < kSplicesPerSeed; ++i) {
      const Bytes& tail = seeds[rng.NextBelow(seeds.size())].second;
      Bytes input(seed.begin(), seed.begin() + static_cast<ptrdiff_t>(
                                                   rng.NextBelow(seed.size())));
      input.insert(input.end(),
                   tail.begin() + static_cast<ptrdiff_t>(
                                      rng.NextBelow(tail.size())),
                   tail.end());
      Reseal(&input);
      Replay(input, &resealed);
    }
    inputs += kFlipsPerSeed + kTruncationsPerSeed + kSplicesPerSeed;
    std::printf(
        "fuzz.snapshot: %s: %d re-sealed mutations accepted, %d refused "
        "past the checksums; %d truncations accepted\n",
        name, resealed.accepted, resealed.refused_past_checksums,
        truncated.accepted);
    if (truncated.accepted != 0 || resealed.accepted == 0 ||
        resealed.refused_past_checksums == 0) {
      std::fprintf(stderr, "fuzz.snapshot: %s: FAILED\n", name);
      ++failures;
    }
  }
  std::printf("fuzz.snapshot: %d inputs, %d failures\n", inputs, failures);
  return failures == 0 ? 0 : 1;
}

}  // namespace
}  // namespace copydetect

int main() { return copydetect::Run(); }
