// snapshot::Write/Read/ReadMapped — round-trip fidelity (every array
// bit for bit, hash-table layouts included) and the fail-closed
// corruption matrix, run through both load modes: truncation at any
// prefix, foreign magic, unknown future versions, checksum mismatches,
// forged tables, cross-section generation disagreement, structurally
// inconsistent payloads, legacy TAPE sections (validated, then
// dropped), and paths that are not regular files. Every
// failure must be a descriptive Status, never UB or a hang (the suite
// runs under asan-ubsan in CI).
#include "snapshot/snapshot_io.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstring>

#include <sys/stat.h>
#include <unistd.h>

#include <initializer_list>
#include <string>
#include <utility>
#include <vector>

#include "common/flat_hash.h"
#include "core/inverted_index.h"
#include "legacy_tape.h"
#include "model/dataset.h"
#include "simjoin/overlap.h"

namespace copydetect {
namespace {

using snapshot::OptionField;
using snapshot::SessionState;
using testutil::EncodeTape;
using testutil::FileGeneration;
using testutil::FileVersion;
using testutil::kTapeSectionId;
using testutil::LegacyTape;
using testutil::LegacyTapeRound;
using testutil::ReadFileBytes;
using testutil::SpecHash64;
using testutil::WithSection;
using testutil::WithTape;
using testutil::WriteFileBytes;

std::string TempPath(const std::string& name) {
  // ctest runs each TEST of this binary as its own process, in
  // parallel; the pid keeps concurrent tests (which share TempDir and
  // reuse names like "good.cdsnap") from clobbering each other.
  return testing::TempDir() + "/" + std::to_string(getpid()) + "." +
         name;
}

/// A small data set with shared values (every slot used below has
/// >= 2 providers, so an inverted index over it is non-trivial).
Dataset SmallData() {
  DatasetBuilder builder;
  builder.Add("S0", "capital-NJ", "Trenton");
  builder.Add("S1", "capital-NJ", "Trenton");
  builder.Add("S2", "capital-NJ", "Newark");
  builder.Add("S3", "capital-NJ", "Newark");
  builder.Add("S0", "capital-PA", "Harrisburg");
  builder.Add("S1", "capital-PA", "Harrisburg");
  builder.Add("S2", "capital-PA", "Philadelphia");
  builder.Add("S3", "capital-PA", "Harrisburg");
  builder.Add("S0", "capital-NY", "Albany");
  builder.Add("S2", "capital-NY", "Albany");
  builder.Add("S3", "capital-NY", "NYC");
  auto data = builder.Build();
  CD_CHECK_OK(data.status());
  return std::move(data).value();
}

/// Fills every section a SessionState holds: options, dataset,
/// overlaps, and a fusion result with copies + trace.
SessionState FullState() {
  SessionState state;
  state.data = SmallData();
  state.generation = state.data.generation();

  state.options.push_back(OptionField::Text("detector", "hybrid"));
  state.options.push_back(OptionField::Real("alpha", 0.1));
  state.options.push_back(OptionField::Uint("threads", 4));
  state.options.push_back(OptionField::Bool("online_updates", true));

  state.has_overlaps = true;
  state.overlaps_generation = state.generation;
  state.overlaps = ComputeOverlaps(state.data);

  FusionResult& fusion = state.fusion;
  fusion.value_probs.assign(state.data.num_slots(), 0.0);
  for (size_t v = 0; v < fusion.value_probs.size(); ++v) {
    // Bit patterns a text round trip would mangle.
    fusion.value_probs[v] = 0.1 + static_cast<double>(v) / 3.0;
  }
  fusion.accuracies.assign(state.data.num_sources(), 0.8);
  fusion.accuracies[1] = 0.97000000000000003;
  fusion.truth.assign(state.data.num_items(), kInvalidSlot);
  fusion.truth[0] = state.data.slot_begin(0);
  fusion.rounds = 2;
  fusion.converged = true;
  PairPosterior posterior;
  posterior.p_indep = 0.25;
  posterior.p_first_copies = 0.125;
  posterior.p_second_copies = 0.625;
  fusion.copies.Set(0, 1, posterior);
  fusion.copies.Set(2, 3, posterior);
  RoundTrace trace;
  trace.round = 1;
  trace.detect_seconds = 0.5;
  trace.computations = 123;
  fusion.trace.push_back(trace);
  fusion.total_seconds = 1.5;

  return state;
}

/// A legacy two-round tape over FullState()'s data, for a file whose
/// header carries `generation`; its second round holds a real
/// inverted index.
LegacyTape FullTape(uint64_t generation) {
  const SessionState state = FullState();
  const FusionResult& fusion = state.fusion;
  LegacyTape tape;
  tape.generation = generation;
  tape.has_copies = true;
  for (int round = 0; round < 2; ++round) {
    LegacyTapeRound tape_round;
    tape_round.pre_probs = fusion.value_probs;
    tape_round.pre_accs = fusion.accuracies;
    tape_round.copies = fusion.copies;
    if (round == 1) {
      OverlapCache overlaps;
      DetectionInput in;
      in.data = &state.data;
      in.overlaps = &overlaps;
      in.value_probs = &fusion.value_probs;
      in.accuracies = &fusion.accuracies;
      auto index = InvertedIndex::Build(in, DetectionParams());
      CD_CHECK_OK(index.status());
      tape_round.has_index = true;
      for (size_t i = 0; i < index->num_entries(); ++i) {
        const IndexEntry& e = index->entry(i);
        tape_round.index_entries.push_back(
            {e.slot, e.probability, e.score});
      }
      tape_round.tail_begin = index->tail_begin();
      tape_round.ordering = static_cast<uint8_t>(index->ordering());
    }
    tape.rounds.push_back(std::move(tape_round));
  }
  return tape;
}

void ExpectSameDataset(const Dataset& got, const Dataset& want) {
  ASSERT_EQ(got.num_sources(), want.num_sources());
  ASSERT_EQ(got.num_items(), want.num_items());
  ASSERT_EQ(got.num_slots(), want.num_slots());
  ASSERT_EQ(got.num_observations(), want.num_observations());
  for (SourceId s = 0; s < want.num_sources(); ++s) {
    EXPECT_EQ(got.source_name(s), want.source_name(s));
    ASSERT_EQ(got.coverage(s), want.coverage(s));
    std::span<const ItemId> gi = got.items_of(s);
    std::span<const ItemId> wi = want.items_of(s);
    std::span<const SlotId> gv = got.slots_of(s);
    std::span<const SlotId> wv = want.slots_of(s);
    for (size_t i = 0; i < wi.size(); ++i) {
      EXPECT_EQ(gi[i], wi[i]);
      EXPECT_EQ(gv[i], wv[i]);
    }
  }
  for (ItemId d = 0; d < want.num_items(); ++d) {
    EXPECT_EQ(got.item_name(d), want.item_name(d));
    EXPECT_EQ(got.slot_begin(d), want.slot_begin(d));
    EXPECT_EQ(got.slot_end(d), want.slot_end(d));
  }
  for (SlotId v = 0; v < want.num_slots(); ++v) {
    EXPECT_EQ(got.slot_value(v), want.slot_value(v));
    EXPECT_EQ(got.slot_item(v), want.slot_item(v));
    std::span<const SourceId> gp = got.providers(v);
    std::span<const SourceId> wp = want.providers(v);
    ASSERT_EQ(gp.size(), wp.size());
    for (size_t i = 0; i < wp.size(); ++i) EXPECT_EQ(gp[i], wp[i]);
  }
}

TEST(SnapshotIo, RoundTripsEverySection) {
  const std::string path = TempPath("roundtrip.cdsnap");
  SessionState state = FullState();
  CD_CHECK_OK(snapshot::Write(path, state));
  auto loaded = snapshot::Read(path);
  CD_CHECK_OK(loaded.status());

  EXPECT_EQ(loaded->generation, state.generation);
  ASSERT_EQ(loaded->options.size(), state.options.size());
  for (size_t i = 0; i < state.options.size(); ++i) {
    EXPECT_EQ(loaded->options[i].name, state.options[i].name);
    EXPECT_EQ(loaded->options[i].type, state.options[i].type);
    EXPECT_EQ(loaded->options[i].uint_value,
              state.options[i].uint_value);
    EXPECT_EQ(loaded->options[i].real_value,
              state.options[i].real_value);
    EXPECT_EQ(loaded->options[i].text_value,
              state.options[i].text_value);
  }
  ExpectSameDataset(loaded->data, state.data);
  // The loaded snapshot draws a fresh process-local generation.
  EXPECT_NE(loaded->data.generation(), state.data.generation());

  ASSERT_TRUE(loaded->has_overlaps);
  for (SourceId a = 0; a < state.data.num_sources(); ++a) {
    for (SourceId b = a + 1; b < state.data.num_sources(); ++b) {
      EXPECT_EQ(loaded->overlaps.Get(a, b), state.overlaps.Get(a, b));
    }
  }
  EXPECT_EQ(loaded->overlaps.NumPositivePairs(),
            state.overlaps.NumPositivePairs());

  // Bitwise — including the exact pair-map layout (raw arrays), which
  // is what makes downstream iteration order reproducible.
  EXPECT_EQ(loaded->fusion.value_probs, state.fusion.value_probs);
  EXPECT_EQ(loaded->fusion.accuracies, state.fusion.accuracies);
  EXPECT_EQ(loaded->fusion.truth, state.fusion.truth);
  EXPECT_EQ(loaded->fusion.rounds, state.fusion.rounds);
  EXPECT_EQ(loaded->fusion.converged, state.fusion.converged);
  EXPECT_EQ(loaded->fusion.copies.raw_map().raw_keys(),
            state.fusion.copies.raw_map().raw_keys());
  ASSERT_EQ(loaded->fusion.trace.size(), state.fusion.trace.size());
  EXPECT_EQ(loaded->fusion.trace[0].round, state.fusion.trace[0].round);
  EXPECT_EQ(loaded->fusion.trace[0].detect_seconds,
            state.fusion.trace[0].detect_seconds);
  EXPECT_EQ(loaded->fusion.trace[0].computations,
            state.fusion.trace[0].computations);
  EXPECT_EQ(loaded->fusion.total_seconds, state.fusion.total_seconds);

  std::remove(path.c_str());
}

TEST(SnapshotIo, RoundTripsMinimalState) {
  const std::string path = TempPath("minimal.cdsnap");
  SessionState state;
  state.data = SmallData();
  state.generation = state.data.generation();
  state.fusion.value_probs.assign(state.data.num_slots(), 0.5);
  state.fusion.accuracies.assign(state.data.num_sources(), 0.8);
  state.fusion.truth.assign(state.data.num_items(), kInvalidSlot);
  CD_CHECK_OK(snapshot::Write(path, state));
  auto loaded = snapshot::Read(path);
  CD_CHECK_OK(loaded.status());
  EXPECT_FALSE(loaded->has_overlaps);
  ExpectSameDataset(loaded->data, state.data);
  std::remove(path.c_str());
}

TEST(SnapshotIo, RoundTripsSparseOverlaps) {
  // Force the hash-map overlap representation (dense_threshold below
  // the source count) — the AssignRaw restore path over real counts.
  const std::string path = TempPath("sparse.cdsnap");
  SessionState state = FullState();
  state.overlaps = ComputeOverlaps(state.data, /*dense_threshold=*/2);
  CD_CHECK_OK(snapshot::Write(path, state));
  auto loaded = snapshot::Read(path);
  CD_CHECK_OK(loaded.status());
  ASSERT_TRUE(loaded->has_overlaps);
  for (SourceId a = 0; a < state.data.num_sources(); ++a) {
    for (SourceId b = a + 1; b < state.data.num_sources(); ++b) {
      EXPECT_EQ(loaded->overlaps.Get(a, b), state.overlaps.Get(a, b));
    }
  }
  EXPECT_EQ(loaded->overlaps.NumPositivePairs(),
            state.overlaps.NumPositivePairs());
  std::remove(path.c_str());
}

TEST(SnapshotIo, WriteIsDeterministic) {
  const std::string path_a = TempPath("det_a.cdsnap");
  const std::string path_b = TempPath("det_b.cdsnap");
  SessionState state = FullState();
  CD_CHECK_OK(snapshot::Write(path_a, state));
  CD_CHECK_OK(snapshot::Write(path_b, state));
  EXPECT_EQ(ReadFileBytes(path_a), ReadFileBytes(path_b));
  std::remove(path_a.c_str());
  std::remove(path_b.c_str());
}

TEST(SnapshotIo, RewritingALoadedFileReproducesItsBytes) {
  // Read and Write round-trip a version-3 file bit for bit, through
  // either load mode: every array, raw table layout and checksum.
  const std::string path = TempPath("rewrite_source.cdsnap");
  const std::string rewritten = TempPath("rewritten.cdsnap");
  CD_CHECK_OK(snapshot::Write(path, FullState()));
  const std::vector<uint8_t> original = ReadFileBytes(path);
  ASSERT_EQ(original[8], 3u);  // the format version's low byte
  for (auto read : {&snapshot::Read, &snapshot::ReadMapped}) {
    auto loaded = read(path);
    CD_CHECK_OK(loaded.status());
    CD_CHECK_OK(snapshot::Write(rewritten, *loaded));
    EXPECT_EQ(ReadFileBytes(rewritten), original);
  }
  std::remove(path.c_str());
  std::remove(rewritten.c_str());
}

TEST(SnapshotIo, MissingFileIsNotFound) {
  auto loaded = snapshot::Read(TempPath("no_such_file.cdsnap"));
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kNotFound);
}

// --- The corruption matrix. Every case runs through both load modes
// (one decoder over two byte sources; the four basic framing cases
// split them, with SnapshotIoMappedCorruption twins for the mapped
// read) and must produce a descriptive InvalidArgument Status naming
// what is wrong; none may crash or read out of bounds. ---

/// Writes FullState() once and hands out its bytes.
const std::vector<uint8_t>& GoodFileBytes() {
  static const std::vector<uint8_t>* bytes = [] {
    const std::string path = TempPath("good.cdsnap");
    CD_CHECK_OK(snapshot::Write(path, FullState()));
    auto* loaded = new std::vector<uint8_t>(ReadFileBytes(path));
    std::remove(path.c_str());
    return loaded;
  }();
  return *bytes;
}

using ReadFn = StatusOr<SessionState> (*)(const std::string&);

/// A load mode: its entry point's name (for failure messages) and the
/// entry point itself.
struct LoadMode {
  const char* name;
  ReadFn read;
};
const LoadMode kOwned = {"Read", &snapshot::Read};
const LoadMode kMapped = {"ReadMapped", &snapshot::ReadMapped};

/// Expects each of `modes` to refuse `bytes` with an InvalidArgument
/// whose message contains `needle`.
void ExpectRefusedBy(std::initializer_list<LoadMode> modes,
                     const std::vector<uint8_t>& bytes,
                     const std::string& needle) {
  const std::string path = TempPath("corrupt.cdsnap");
  WriteFileBytes(path, bytes);
  for (const auto& [mode, read] : modes) {
    auto loaded = read(path);
    EXPECT_FALSE(loaded.ok()) << mode << " loaded the file";
    if (loaded.ok()) continue;
    EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument)
        << mode;
    EXPECT_FALSE(loaded.status().message().empty()) << mode;
    EXPECT_NE(loaded.status().message().find(needle), std::string::npos)
        << mode << ": " << loaded.status().message();
  }
  std::remove(path.c_str());
}

/// ExpectRefusedBy in both load modes.
void ExpectRefused(const std::vector<uint8_t>& bytes,
                   const std::string& needle) {
  ExpectRefusedBy({kOwned, kMapped}, bytes, needle);
}

/// ExpectRefused over the file snapshot::Write makes of `state` (Write
/// serializes inconsistent state as given; only the readers refuse).
void ExpectStateRefused(const SessionState& state,
                        const std::string& needle) {
  const std::string path = TempPath("inconsistent.cdsnap");
  CD_CHECK_OK(snapshot::Write(path, state));
  const std::vector<uint8_t> bytes = ReadFileBytes(path);
  std::remove(path.c_str());
  ExpectRefused(bytes, needle);
}

/// Expects `mode` to refuse every strict prefix of a good file: every
/// prefix of the header + section table, then a sweep through the
/// payloads, then the one-byte-short file. Sections cover the file
/// exactly, so *no* strict prefix may load.
void ExpectEveryTruncationRefusedBy(const LoadMode& mode) {
  const std::vector<uint8_t>& good = GoodFileBytes();
  ASSERT_GT(good.size(), 128u);
  std::vector<size_t> cuts;
  for (size_t n = 0; n < 128; ++n) cuts.push_back(n);
  for (size_t n = 128; n < good.size(); n += 97) cuts.push_back(n);
  cuts.push_back(good.size() - 1);
  for (size_t n : cuts) {
    SCOPED_TRACE("prefix of " + std::to_string(n) + " bytes");
    ExpectRefusedBy({mode},
                    std::vector<uint8_t>(
                        good.begin(), good.begin() + static_cast<ptrdiff_t>(n)),
                    "");
  }
}

// The four framing cases below run the owned read; their
// SnapshotIoMappedCorruption twins run the mapped read.

TEST(SnapshotIoCorruption, EveryTruncationFailsClosed) {
  ExpectEveryTruncationRefusedBy(kOwned);
}

std::vector<uint8_t> ForeignMagicBytes() {
  std::vector<uint8_t> bytes = GoodFileBytes();
  bytes[0] = 'X';
  return bytes;
}

TEST(SnapshotIoCorruption, ForeignMagicIsRefused) {
  ExpectRefusedBy({kOwned}, ForeignMagicBytes(), "bad magic");
}

TEST(SnapshotIoCorruption, TextModeManglingFailsAtTheMagic) {
  // The PNG-style \r\n in the magic: a text-mode transfer that
  // rewrites CR/LF must die at byte 6, not corrupt a payload later.
  std::vector<uint8_t> bytes = GoodFileBytes();
  ASSERT_EQ(bytes[6], '\r');
  bytes.erase(bytes.begin() + 6);  // CRLF -> LF
  ExpectRefused(bytes, "bad magic");
}

TEST(SnapshotIoCorruption, UnknownFutureVersionIsRefused) {
  std::vector<uint8_t> bytes = GoodFileBytes();
  // Format version lives at bytes [8, 12), little-endian.
  bytes[8] = static_cast<uint8_t>(snapshot::kFormatVersion + 1);
  ExpectRefused(bytes, "format version");
}

std::vector<uint8_t> HeaderTableFlipBytes() {
  std::vector<uint8_t> bytes = GoodFileBytes();
  bytes[40] ^= 0x01;  // inside the first section-table entry
  return bytes;
}

TEST(SnapshotIoCorruption, HeaderTableFlipFailsTheMetaChecksum) {
  ExpectRefusedBy({kOwned}, HeaderTableFlipBytes(), "checksum mismatch");
}

std::vector<uint8_t> PayloadFlipBytes() {
  std::vector<uint8_t> bytes = GoodFileBytes();
  bytes.back() ^= 0x40;  // inside the last section's payload
  return bytes;
}

TEST(SnapshotIoCorruption, PayloadFlipFailsTheSectionChecksum) {
  ExpectRefusedBy({kOwned}, PayloadFlipBytes(), "checksum mismatch");
}

// The checksums are specified in docs/FORMATS.md precisely so an
// independent implementation can verify or craft files; SpecHash64
// (tests/legacy_tape.h) re-implements both from the spec and forges
// consistent files below, doubling as a spec-conformance check.

// Forging helpers over the framing of docs/FORMATS.md: a 32-byte
// header (version at byte 8, section count at byte 24), 32-byte table
// entries { u32 id, u32 reserved, u64 offset, u64 size, u64 checksum },
// then the u64 meta checksum over header + table. They seal with the
// checksum of `version`, by default the one the file's version byte
// names.
constexpr size_t kHeader = 32;

size_t TableEnd(const std::vector<uint8_t>& bytes) {
  return kHeader + static_cast<size_t>(bytes[24]) * 32;
}

uint64_t EntryField(const std::vector<uint8_t>& bytes, size_t entry,
                    size_t field_offset) {
  uint64_t v = 0;
  std::memcpy(&v, bytes.data() + kHeader + entry * 32 + field_offset, 8);
  return v;
}

/// Re-seals the meta checksum after a header or table patch.
void ResealTable(std::vector<uint8_t>* bytes, uint32_t version) {
  const size_t table_end = TableEnd(*bytes);
  const uint64_t sum = SpecHash64(version, bytes->data(), table_end);
  std::memcpy(bytes->data() + table_end, &sum, 8);
}
void ResealTable(std::vector<uint8_t>* bytes) {
  ResealTable(bytes, FileVersion(*bytes));
}

/// Re-seals table entry `entry`'s payload checksum after a payload
/// patch, then the meta checksum over the table that now records it.
void ResealSection(std::vector<uint8_t>* bytes, size_t entry,
                   uint32_t version) {
  const uint64_t sum =
      SpecHash64(version, bytes->data() + EntryField(*bytes, entry, 8),
                 EntryField(*bytes, entry, 16));
  std::memcpy(bytes->data() + kHeader + entry * 32 + 24, &sum, 8);
  ResealTable(bytes, version);
}
void ResealSection(std::vector<uint8_t>* bytes, size_t entry) {
  ResealSection(bytes, entry, FileVersion(*bytes));
}

/// `bytes` with every payload and the table sealed with `version`'s
/// checksum, whatever its version byte says.
std::vector<uint8_t> SealedWith(std::vector<uint8_t> bytes,
                                uint32_t version) {
  for (size_t entry = 0; entry < bytes[24]; ++entry) {
    ResealSection(&bytes, entry, version);
  }
  return bytes;
}

TEST(SnapshotIoCorruption, ChecksumFollowsTheVersionByte) {
  const std::vector<uint8_t>& good = GoodFileBytes();
  ASSERT_EQ(FileVersion(good), snapshot::kFormatVersion);
  ASSERT_EQ(snapshot::kFormatVersion, 3u);
  // A fresh Write conforms to the version-3 spec: the meta checksum
  // and every payload checksum are the 8-lane ones, which differ from
  // the serial ones of versions 1 and 2.
  const size_t table_end = TableEnd(good);
  uint64_t stored = 0;
  std::memcpy(&stored, good.data() + table_end, 8);
  EXPECT_EQ(stored, SpecHash64(3, good.data(), table_end));
  EXPECT_NE(stored, SpecHash64(2, good.data(), table_end));
  for (size_t entry = 0; entry < good[24]; ++entry) {
    SCOPED_TRACE("section entry " + std::to_string(entry));
    const uint8_t* payload = good.data() + EntryField(good, entry, 8);
    const size_t size = EntryField(good, entry, 16);
    EXPECT_EQ(EntryField(good, entry, 24), SpecHash64(3, payload, size));
    EXPECT_NE(EntryField(good, entry, 24), SpecHash64(2, payload, size));
  }
  EXPECT_EQ(SealedWith(good, 3), good);

  // Sealed serially, a version-3 file fails its checksums.
  ExpectRefused(SealedWith(good, 2), "checksum mismatch");
  // Relabelled version 2 (the same layout), it needs the serial seal:
  // with lanes it fails, sealed serially it loads.
  std::vector<uint8_t> relabelled = good;
  relabelled[8] = 2;
  ExpectRefused(SealedWith(relabelled, 3), "checksum mismatch");
  const std::string path = TempPath("relabelled_v2.cdsnap");
  WriteFileBytes(path, SealedWith(relabelled, 2));
  for (const auto& [mode, read] : {kOwned, kMapped}) {
    SCOPED_TRACE(mode);
    auto loaded = read(path);
    CD_CHECK_OK(loaded.status());
    ExpectSameDataset(loaded->data, FullState().data);
  }
  std::remove(path.c_str());
}

TEST(SnapshotIoCorruption, UnknownSectionIdInAKnownVersionIsRefused) {
  std::vector<uint8_t> bytes = GoodFileBytes();
  ASSERT_GE(bytes[24], 4u);  // section count, low byte

  // First prove the reimplementation matches the file's meta checksum.
  const size_t table_end = TableEnd(bytes);
  uint64_t stored = 0;
  std::memcpy(&stored, bytes.data() + table_end, 8);
  ASSERT_EQ(stored, SpecHash64(FileVersion(bytes), bytes.data(), table_end))
      << "docs/FORMATS.md checksum spec drifted from the code";

  // Forge: relabel the first section with an id the version does not
  // define, re-seal the table, and expect a precise refusal. Ids 6 and
  // 7 framed the files of a retired multi-process mode; they stay
  // reserved and are refused like any other unknown id.
  for (int id : {6, 7, 99}) {
    SCOPED_TRACE(id);
    std::vector<uint8_t> forged = bytes;
    forged[kHeader] = static_cast<uint8_t>(id);
    ResealTable(&forged);
    ExpectRefused(forged, "unknown section id " + std::to_string(id));
  }
}

TEST(SnapshotIoCorruption, DuplicateSectionIdIsRefused) {
  std::vector<uint8_t> bytes = GoodFileBytes();
  ASSERT_EQ(bytes[24], 4u);  // OPTIONS, DATASET, OVERLAPS, FUSION
  // Relabel the FUSION entry as a second OVERLAPS and re-seal the
  // table: the checksums all pass, so only the duplicate check can
  // refuse a section that would silently overwrite already-validated
  // state.
  bytes[kHeader + 3 * 32] = 3;
  ResealTable(&bytes);
  ExpectRefused(bytes, "duplicate section id 3");
}

TEST(SnapshotIoCorruption, MisalignedForgedOffsetIsRefused) {
  // A version-2 file whose table places a section at an odd offset.
  // Only a forged table can produce this (the writer always pads to
  // 8); both modes must refuse it at the framing check rather than
  // decode it (the mapped decode would alias misaligned memory). The
  // table is re-sealed so the alignment check — not the checksum — is
  // what fires.
  std::vector<uint8_t> bytes = GoodFileBytes();
  const uint64_t offset = EntryField(bytes, 2, 8) + 1;
  std::memcpy(bytes.data() + kHeader + 2 * 32 + 8, &offset, 8);
  ResealTable(&bytes);
  ExpectRefused(bytes, "misaligned");
}

// --- Legacy TAPE sections: the reader validates them exactly as it
// did when TAPE was written, then drops them. The payloads come from
// the spec-side encoder in tests/legacy_tape.h. ---

std::vector<uint8_t> FullTapePayload() {
  return EncodeTape(FullTape(FileGeneration(GoodFileBytes())));
}

TEST(SnapshotIoCorruption, HostileTapeRoundCountIsRefusedCheaply) {
  // A small file declaring an enormous TAPE round count must be
  // refused by the count guard, not by a huge loop or allocation.
  // The TAPE payload starts with u64 generation, u8 has_copies, then
  // the u64 round count — overwrite it with a count the section
  // cannot possibly hold.
  std::vector<uint8_t> payload = FullTapePayload();
  const uint64_t huge = 1ULL << 40;
  std::memcpy(payload.data() + 9, &huge, 8);
  ExpectRefused(WithSection(GoodFileBytes(), kTapeSectionId, payload), "TAPE");
}

TEST(SnapshotIoCorruption, OverlapsGenerationMismatchIsRefused) {
  SessionState state = FullState();
  state.overlaps_generation = state.generation + 1;
  ExpectStateRefused(state, "generation mismatch");
}

TEST(SnapshotIoCorruption, TapeGenerationMismatchIsRefused) {
  LegacyTape tape = FullTape(FileGeneration(GoodFileBytes()) + 7);
  ExpectRefused(WithTape(GoodFileBytes(), tape), "generation mismatch");
}

/// A data set of `n` sources that all provide the same value of one
/// item, so every source pair overlaps.
Dataset SharedValueData(int n) {
  DatasetBuilder builder;
  for (int s = 0; s < n; ++s) {
    // Built up with += to sidestep GCC 12's operator+ -Wrestrict
    // false positive (PR105651) under -Werror.
    std::string name = "B";
    name += std::to_string(s);
    builder.Add(name, "item", "v");
  }
  auto data = builder.Build();
  CD_CHECK_OK(data.status());
  return std::move(data).value();
}

TEST(SnapshotIoCorruption, OverlapsForWrongSourceCountAreRefused) {
  SessionState state = FullState();
  state.overlaps = ComputeOverlaps(SharedValueData(6));  // data has 4
  ExpectStateRefused(state, "sources");
}

TEST(SnapshotIoCorruption, FusionDimensionMismatchIsRefused) {
  SessionState state = FullState();
  state.fusion.value_probs.push_back(0.5);  // one slot too many
  ExpectStateRefused(state, "FUSION");
}

TEST(SnapshotIoCorruption, TapeDimensionMismatchIsRefused) {
  LegacyTape tape = FullTape(FileGeneration(GoodFileBytes()));
  tape.rounds[0].pre_accs.pop_back();  // one source short
  ExpectRefused(WithTape(GoodFileBytes(), tape), "TAPE");
}

TEST(SnapshotIoCorruption, TruthSlotOutOfRangeIsRefused) {
  SessionState state = FullState();
  state.fusion.truth[0] =
      static_cast<SlotId>(state.data.num_slots() + 3);
  ExpectStateRefused(state, "truth slot");
}

TEST(SnapshotIoCorruption, PairKeyOutOfSourceRangeIsRefused) {
  SessionState state = FullState();
  PairPosterior posterior;
  posterior.p_indep = 0.4;
  state.fusion.copies.Set(0, 700, posterior);  // data has 4 sources
  ExpectStateRefused(state, "pair key");
}

// --- Structural validation. Each case forges a payload that passes
// every checksum (patched, then re-sealed) but describes an impossible
// structure; only the DATASET/OVERLAPS validators can refuse it. ---

/// The u32 arrays of the DATASET payload, in wire order.
enum DatasetArray {
  kSlotItem = 0,
  kItemSlotBegin,
  kProviderBegin,
  kProviders,
  kSrcBegin,
  kObsItem,
  kObsSlot,
};

/// File offset of element `index` of DATASET array `array` in a
/// version-2 file (DATASET is table entry 1). Walks the payload per
/// docs/FORMATS.md: four u64 counts, three string tables, then u32
/// arrays, each padded to 8 bytes before its u64 count.
size_t DatasetElement(const std::vector<uint8_t>& bytes,
                      DatasetArray array, size_t index) {
  const size_t payload = EntryField(bytes, 1, 8);
  auto u64_at = [&](size_t pos) {
    uint64_t v = 0;
    std::memcpy(&v, bytes.data() + payload + pos, 8);
    return v;
  };
  size_t pos = 32;
  for (int table = 0; table < 3; ++table) {
    const uint64_t strings = u64_at(pos);
    pos += 8;
    for (uint64_t i = 0; i < strings; ++i) pos += 8 + u64_at(pos);
  }
  for (int a = 0;; ++a) {
    pos = (pos + 7) & ~size_t{7};
    const uint64_t count = u64_at(pos);
    if (a == array) {
      EXPECT_LT(index, count);
      return payload + pos + 8 + index * 4;
    }
    pos += 8 + count * 4;
  }
}

uint32_t U32At(const std::vector<uint8_t>& bytes, size_t offset) {
  uint32_t v = 0;
  std::memcpy(&v, bytes.data() + offset, 4);
  return v;
}

TEST(SnapshotIoCorruption, ForgedDatasetStructureIsRefused) {
  const std::vector<uint8_t>& good = GoodFileBytes();
  const size_t payload = EntryField(good, 1, 8);
  // The ordering forgery below needs slot 0 to have two providers.
  ASSERT_GE(U32At(good, DatasetElement(good, kProviderBegin, 1)), 2u);
  const struct {
    size_t at;  // file offset of the u32 to replace
    uint32_t value;
    const char* needle;
  } kForgeries[] = {
      // A provider id at or above the data's 4 sources.
      {DatasetElement(good, kProviders, 0), 4,
       "provider lists not a valid CSR over sources"},
      // Slot 0 lists its first provider twice: every id in range, but
      // the list no longer strictly ascends.
      {DatasetElement(good, kProviders, 1),
       U32At(good, DatasetElement(good, kProviders, 0)),
       "provider list not strictly ascending"},
      // Item 0's slot range would end after item 1's.
      {DatasetElement(good, kItemSlotBegin, 1),
       U32At(good, DatasetElement(good, kItemSlotBegin, 2)) + 1,
       "item->slot boundaries not a valid CSR"},
      // Slot 0 belongs to item 0; claim item 1 (still a valid item id).
      {DatasetElement(good, kSlotItem, 0), 1,
       "slot->item mapping disagrees with the item->slot boundaries"},
      // An observation of slot num_slots, one past the last.
      {DatasetElement(good, kObsSlot, 0),
       static_cast<uint32_t>(FullState().data.num_slots()),
       "per-source observation arrays out of range"},
      // The payload opens with u64 num_sources, num_items, num_slots,
      // num_obs; declare one item more than the arrays hold.
      {payload + 8, U32At(good, payload + 8) + 1,
       "array sizes disagree with the declared counts"},
  };
  for (const auto& forgery : kForgeries) {
    SCOPED_TRACE(forgery.needle);
    std::vector<uint8_t> bytes = good;
    std::memcpy(bytes.data() + forgery.at, &forgery.value, 4);
    ResealSection(&bytes, 1);
    ExpectRefused(bytes, forgery.needle);
  }
}

TEST(SnapshotIoCorruption, SparseOverlapKeyOutOfSourceRangeIsRefused) {
  // Sparse counts over 6 sources carry pair keys naming sources 4 and
  // 5; relabel the payload's source count to the data's 4 so that only
  // the pair-key range check stands between them and the engine.
  SessionState state = FullState();
  state.overlaps =
      ComputeOverlaps(SharedValueData(6), /*dense_threshold=*/2);
  const std::string path = TempPath("sparse_keys.cdsnap");
  CD_CHECK_OK(snapshot::Write(path, state));
  std::vector<uint8_t> bytes = ReadFileBytes(path);
  std::remove(path.c_str());
  // OVERLAPS (entry 2): u64 generation, u8 dense flag, u32 sources.
  const size_t sources_at = EntryField(bytes, 2, 8) + 9;
  ASSERT_EQ(U32At(bytes, sources_at), 6u);
  const uint32_t four = 4;
  std::memcpy(bytes.data() + sources_at, &four, 4);
  ResealSection(&bytes, 2);
  ExpectRefused(bytes, "OVERLAPS pair key out of source range");
}

TEST(SnapshotIoCorruption, PairKeyNotNamingTheSmallerSourceFirstIsRefused) {
  // PairKey always names the smaller source first. A key that does not
  // would still count as a pair (NumCopying, CopyingPairs) while Get,
  // PrCopies and IsCopying could never reach it. One forgery per
  // section that holds pair keys, each with its ids in range.
  const uint64_t reversed = (uint64_t{3} << 32) | 2;
  const uint64_t self = (uint64_t{1} << 32) | 1;
  auto copies_with = [](uint64_t key) {
    FlatHashMap<PairPosterior> map;
    map[PairKey(0, 1)] = PairPosterior{0.25, 0.125, 0.625};
    map[key] = PairPosterior{0.25, 0.625, 0.125};
    return CopyResult::FromRawMap(std::move(map));
  };

  SessionState fusion = FullState();
  fusion.fusion.copies = copies_with(reversed);

  // OVERLAPS: sparse counts spliced in after DATASET, as the writer
  // lays them out.
  SessionState plain = FullState();
  plain.has_overlaps = false;
  const std::string path = TempPath("no_overlaps.cdsnap");
  CD_CHECK_OK(snapshot::Write(path, plain));
  const std::vector<uint8_t> without_overlaps = ReadFileBytes(path);
  std::remove(path.c_str());
  FlatHashMap<uint32_t> counts;
  counts[PairKey(0, 1)] = 2;
  counts[(uint64_t{2} << 32) | 1] = 1;
  testutil::PayloadWriter overlaps;
  overlaps.U64(FileGeneration(without_overlaps));
  overlaps.U8(0);  // sparse
  overlaps.U32(4);
  overlaps.Vec(std::vector<uint32_t>());
  overlaps.Vec(counts.raw_keys());
  overlaps.Vec(counts.raw_values());

  LegacyTape tape = FullTape(FileGeneration(GoodFileBytes()));
  tape.rounds[0].copies = copies_with(self);

  const std::string fusion_path = TempPath("fusion_key.cdsnap");
  CD_CHECK_OK(snapshot::Write(fusion_path, fusion));
  const struct {
    const char* what;
    std::vector<uint8_t> bytes;
    const char* needle;
  } kForgeries[] = {
      {"FUSION", ReadFileBytes(fusion_path),
       "FUSION pair key (3, 2) does not name its smaller source first"},
      {"OVERLAPS",
       WithSection(without_overlaps, 3, std::move(overlaps).Take(), 2),
       "OVERLAPS pair key (2, 1) does not name its smaller source first"},
      {"TAPE", WithTape(GoodFileBytes(), tape),
       "TAPE pair key (1, 1) does not name its smaller source first"},
  };
  std::remove(fusion_path.c_str());
  for (const auto& forgery : kForgeries) {
    SCOPED_TRACE(forgery.what);
    ExpectRefused(forgery.bytes, forgery.needle);
  }
}

// --- Non-regular files: every reader refuses them at the opener with an
// IOError naming the path, before any read — /dev/zero would otherwise
// be read until memory runs out, and a FIFO would block open(). ---

void ExpectNotARegularFile(const std::string& path) {
  const std::pair<const char*, Status> results[] = {
      {"Read", snapshot::Read(path).status()},
      {"ReadMapped", snapshot::ReadMapped(path).status()},
  };
  for (const auto& [reader, status] : results) {
    EXPECT_EQ(status.code(), StatusCode::kIOError)
        << reader << ": " << status.message();
    EXPECT_NE(status.message().find(path), std::string::npos)
        << reader << ": " << status.message();
    EXPECT_NE(status.message().find("not a regular file"),
              std::string::npos)
        << reader << ": " << status.message();
  }
}

TEST(SnapshotIoNonRegularFile, DeviceAndDirectoryAreRefused) {
  ExpectNotARegularFile("/dev/zero");
  const std::string dir = TempPath("dir.cdsnap");
  ASSERT_EQ(mkdir(dir.c_str(), 0700), 0) << dir;
  ExpectNotARegularFile(dir);
  rmdir(dir.c_str());
}

// Registered with a short ctest TIMEOUT (tests/CMakeLists.txt): a
// regression to a blocking open() hangs here rather than failing.
TEST(SnapshotIoNonRegularFile, FifoIsRefusedWithoutBlocking) {
  const std::string path = TempPath("fifo.cdsnap");
  std::remove(path.c_str());
  ASSERT_EQ(mkfifo(path.c_str(), 0600), 0) << path;
  ExpectNotARegularFile(path);
  std::remove(path.c_str());
}

// --- Version-2 mapped reading: ReadMapped must serve byte-identical
// state out of the mapping and read version-1 files too. ---

void ExpectSameState(const SessionState& got, const SessionState& want) {
  EXPECT_EQ(got.generation, want.generation);
  ExpectSameDataset(got.data, want.data);
  ASSERT_EQ(got.has_overlaps, want.has_overlaps);
  if (want.has_overlaps) {
    for (SourceId a = 0; a < want.data.num_sources(); ++a) {
      for (SourceId b = a + 1; b < want.data.num_sources(); ++b) {
        EXPECT_EQ(got.overlaps.Get(a, b), want.overlaps.Get(a, b));
      }
    }
    EXPECT_EQ(got.overlaps.NumPositivePairs(),
              want.overlaps.NumPositivePairs());
  }
  EXPECT_EQ(got.fusion.value_probs, want.fusion.value_probs);
  EXPECT_EQ(got.fusion.accuracies, want.fusion.accuracies);
  EXPECT_EQ(got.fusion.truth, want.fusion.truth);
  EXPECT_EQ(got.fusion.rounds, want.fusion.rounds);
  EXPECT_EQ(got.fusion.converged, want.fusion.converged);
  EXPECT_EQ(got.fusion.copies.raw_map().raw_keys(),
            want.fusion.copies.raw_map().raw_keys());
}

TEST(SnapshotIoMapped, MappedStateMatchesOwnedRead) {
  const std::string path = TempPath("mapped_roundtrip.cdsnap");
  SessionState state = FullState();
  CD_CHECK_OK(snapshot::Write(path, state));
  auto owned = snapshot::Read(path);
  CD_CHECK_OK(owned.status());
  auto mapped = snapshot::ReadMapped(path);
  CD_CHECK_OK(mapped.status());
  std::remove(path.c_str());
  ExpectSameState(*mapped, *owned);
}

TEST(SnapshotIoMapped, MappedStateOutlivesTheUnlinkedFile) {
  const std::string path = TempPath("mapped_keep.cdsnap");
  WriteFileBytes(path, GoodFileBytes());
  auto mapped = snapshot::ReadMapped(path);
  // Unlinking with the mapping live is fine on POSIX: the backing file
  // is gone, yet every array must still read correctly (the mapping
  // keepalive owns the pages).
  std::remove(path.c_str());
  CD_CHECK_OK(mapped.status());
  SessionState want = FullState();
  ExpectSameDataset(mapped->data, want.data);
}

// The mapped-read twins of the four SnapshotIoCorruption framing cases
// that run the owned read only.

TEST(SnapshotIoMappedCorruption, EveryTruncationFailsClosed) {
  ExpectEveryTruncationRefusedBy(kMapped);
}

TEST(SnapshotIoMappedCorruption, ForeignMagicIsRefused) {
  ExpectRefusedBy({kMapped}, ForeignMagicBytes(), "bad magic");
}

TEST(SnapshotIoMappedCorruption, PayloadFlipFailsTheSectionChecksum) {
  ExpectRefusedBy({kMapped}, PayloadFlipBytes(), "checksum mismatch");
}

TEST(SnapshotIoMappedCorruption, HeaderTableFlipFailsTheMetaChecksum) {
  ExpectRefusedBy({kMapped}, HeaderTableFlipBytes(), "checksum mismatch");
}

TEST(SnapshotIoMapped, Version1GoldenFallsBackToOwnedRead) {
  // A committed pre-mmap (version 1) snapshot: both entry points must
  // read it, producing identical state. Its packed arrays carry no
  // alignment guarantee, so the mapped read decodes them into copies
  // exactly as the owned read does.
  const std::string path =
      std::string(CD_TEST_DATA_DIR) + "/v1_golden.cdsnap";
  auto owned = snapshot::Read(path);
  CD_CHECK_OK(owned.status());
  auto mapped = snapshot::ReadMapped(path);
  CD_CHECK_OK(mapped.status());
  ExpectSameState(*mapped, *owned);
}

// --- Legacy TAPE sections that pass every check load in both modes
// as if absent; every check still refuses a forged one. ---

TEST(SnapshotIoLegacyTape, ValidTapeIsValidatedAndDropped) {
  const std::vector<uint8_t> with_tape =
      WithSection(GoodFileBytes(), kTapeSectionId, FullTapePayload());
  const std::string plain_path = TempPath("plain.cdsnap");
  const std::string tape_path = TempPath("legacy_tape.cdsnap");
  WriteFileBytes(plain_path, GoodFileBytes());
  WriteFileBytes(tape_path, with_tape);
  for (const auto& [mode, read] : {kOwned, kMapped}) {
    SCOPED_TRACE(mode);
    auto plain = read(plain_path);
    CD_CHECK_OK(plain.status());
    auto loaded = read(tape_path);
    CD_CHECK_OK(loaded.status());
    ExpectSameState(*loaded, *plain);
  }
  std::remove(plain_path.c_str());
  std::remove(tape_path.c_str());
}

TEST(SnapshotIoLegacyTape, ForgedTapeIsRefused) {
  const std::vector<uint8_t>& good = GoodFileBytes();
  const uint64_t generation = FileGeneration(good);
  const Dataset data = SmallData();
  SlotId lonely = kInvalidSlot;  // a slot with a single provider
  for (SlotId v = 0; v < data.num_slots(); ++v) {
    if (data.providers(v).size() < 2) lonely = v;
  }
  ASSERT_NE(lonely, kInvalidSlot);
  // The second round of FullTape() carries the index.
  auto forged = [&](auto&& edit) {
    LegacyTape tape = FullTape(generation);
    edit(&tape.rounds[1]);
    return WithTape(good, tape);
  };
  std::vector<uint8_t> truncated = FullTapePayload();
  truncated.pop_back();
  const struct {
    const char* what;
    std::vector<uint8_t> bytes;
    const char* needle;
  } kForgeries[] = {
      {"payload one byte short",
       WithSection(good, kTapeSectionId, truncated), "TAPE section truncated"},
      {"TAPE before DATASET",
       WithSection(good, kTapeSectionId, FullTapePayload(), 1),
       "TAPE section before DATASET"},
      {"a second TAPE",
       WithSection(WithSection(good, kTapeSectionId, FullTapePayload()),
                   kTapeSectionId, FullTapePayload()),
       "duplicate section id 5"},
      {"probabilities for the wrong slot count",
       forged([](LegacyTapeRound* r) { r->pre_probs.push_back(0.5); }),
       "TAPE round value probabilities"},
      {"index slot out of range",
       forged([&](LegacyTapeRound* r) {
         r->index_entries[0].slot =
             static_cast<SlotId>(data.num_slots() + 1);
       }),
       "out of range"},
      {"index slot twice",
       forged([](LegacyTapeRound* r) {
         r->index_entries[1].slot = r->index_entries[0].slot;
       }),
       "duplicate entry for slot"},
      {"index slot with one provider",
       forged([&](LegacyTapeRound* r) {
         r->index_entries[0].slot = lonely;
       }),
       "fewer than 2 providers"},
      {"tail past the entries",
       forged([](LegacyTapeRound* r) {
         r->tail_begin = r->index_entries.size() + 1;
       }),
       "past the"},
      {"unknown ordering",
       forged([](LegacyTapeRound* r) { r->ordering = 3; }),
       "unknown index ordering"},
  };
  for (const auto& forgery : kForgeries) {
    SCOPED_TRACE(forgery.what);
    ExpectRefused(forgery.bytes, forgery.needle);
  }
}

}  // namespace
}  // namespace copydetect
