#ifndef COPYDETECT_TESTS_LEGACY_TAPE_H_
#define COPYDETECT_TESTS_LEGACY_TAPE_H_

// A test-side encoder for the legacy TAPE section of docs/FORMATS.md,
// written from the spec alone (as SpecHash64 re-implements the
// checksums). The library still reads and validates TAPE but never
// writes it, so the tests that pin its refusals build TAPE payloads
// here and splice them into files that snapshot::Write or
// Session::Save produced.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <iterator>
#include <string>
#include <utility>
#include <vector>

#include "common/flat_hash.h"
#include "core/copy_result.h"
#include "model/dataset.h"

namespace copydetect {
namespace testutil {

inline std::vector<uint8_t> ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  return std::vector<uint8_t>(std::istreambuf_iterator<char>(in),
                              std::istreambuf_iterator<char>());
}

inline void WriteFileBytes(const std::string& path,
                           const std::vector<uint8_t>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(out.good()) << path;
}

/// The header's format version, bytes [8, 12).
inline uint32_t FileVersion(const std::vector<uint8_t>& file) {
  uint32_t version = 0;
  std::memcpy(&version, file.data() + 8, 4);
  return version;
}

/// The checksums of docs/FORMATS.md, written from the spec alone. The
/// input is split into 8-byte little-endian words, the last one
/// zero-padded, and the length seed is
/// 0xcbf29ce484222325 ^ (size * 0x100000001b3). Versions 1 and 2 fold
/// every word into one chain h = Mix64(h ^ w) from the seed. Version 3
/// deals word w to lane w mod 8, lane k starting at seed + k, then
/// folds the lanes in order into the seed: h = Mix64(h ^ lane_k).
inline uint64_t SpecHash64(uint32_t version, const uint8_t* data,
                           size_t size) {
  const uint64_t seed = 0xcbf29ce484222325ULL ^
                        (static_cast<uint64_t>(size) * 0x100000001b3ULL);
  const size_t lanes = version >= 3 ? 8 : 1;
  std::vector<uint64_t> lane(lanes);
  for (size_t k = 0; k < lanes; ++k) lane[k] = seed + k;
  for (size_t w = 0; 8 * w < size; ++w) {
    uint64_t word = 0;  // little-endian hosts only
    std::memcpy(&word, data + 8 * w, std::min<size_t>(8, size - 8 * w));
    lane[w % lanes] = Mix64(lane[w % lanes] ^ word);
  }
  if (lanes == 1) return lane[0];
  uint64_t h = seed;
  for (uint64_t l : lane) h = Mix64(h ^ l);
  return h;
}

/// One entry of a taped round-1 inverted index.
struct LegacyIndexEntry {
  uint32_t slot = 0;
  double probability = 0.0;
  double score = 0.0;
};

/// One taped fusion round.
struct LegacyTapeRound {
  std::vector<double> pre_probs;  ///< per slot; empty when not taped
  std::vector<double> pre_accs;   ///< per source
  CopyResult copies;
  bool has_index = false;
  std::vector<LegacyIndexEntry> index_entries;
  uint64_t tail_begin = 0;
  uint8_t ordering = 0;  ///< 0 by-contribution, 1 by-provider, 2 random
};

struct LegacyTape {
  uint64_t generation = 0;
  bool has_copies = false;
  std::vector<LegacyTapeRound> rounds;
};

/// Appends little-endian wire primitives to a version-2 payload.
class PayloadWriter {
 public:
  void U8(uint8_t v) { bytes_.push_back(v); }
  void U32(uint32_t v) { Raw(&v, 4); }
  void U64(uint64_t v) { Raw(&v, 8); }
  void F64(double v) { Raw(&v, 8); }

  /// `vec<T>`: zero-pad to 8 bytes from the payload start, then the
  /// u64 count and the packed elements.
  template <typename T>
  void Vec(const std::vector<T>& v) {
    while (bytes_.size() % 8 != 0) bytes_.push_back(0);
    U64(v.size());
    for (const T& e : v) Raw(&e, sizeof(T));
  }

  std::vector<uint8_t> Take() && { return std::move(bytes_); }

 private:
  // Host byte order: little-endian hosts only, like SpecHash64.
  void Raw(const void* p, size_t n) {
    const auto* b = static_cast<const uint8_t*>(p);
    bytes_.insert(bytes_.end(), b, b + n);
  }

  std::vector<uint8_t> bytes_;
};

/// The TAPE payload for `tape`.
inline std::vector<uint8_t> EncodeTape(const LegacyTape& tape) {
  PayloadWriter w;
  w.U64(tape.generation);
  w.U8(tape.has_copies ? 1 : 0);
  w.U64(tape.rounds.size());
  for (const LegacyTapeRound& round : tape.rounds) {
    w.Vec(round.pre_probs);
    w.Vec(round.pre_accs);
    // A copy result is its raw pair map: keys, then the posteriors.
    const FlatHashMap<PairPosterior>& map = round.copies.raw_map();
    w.Vec(map.raw_keys());
    w.U64(map.raw_values().size());
    for (const PairPosterior& p : map.raw_values()) {
      w.F64(p.p_indep);
      w.F64(p.p_first_copies);
      w.F64(p.p_second_copies);
    }
    w.U8(round.has_index ? 1 : 0);
    if (!round.has_index) continue;
    w.U64(round.index_entries.size());
    for (const LegacyIndexEntry& e : round.index_entries) {
      w.U32(e.slot);
      w.F64(e.probability);
      w.F64(e.score);
    }
    w.U64(round.tail_begin);
    w.U8(round.ordering);
  }
  return std::move(w).Take();
}

/// A one-round tape whose round-1 index holds every slot of `data`
/// with two or more providers — the shape the update recorder wrote
/// for an index-family session.
inline LegacyTape IndexTapeFor(const Dataset& data, uint64_t generation) {
  LegacyTapeRound round;
  round.pre_accs.assign(data.num_sources(), 0.8);
  round.has_index = true;
  for (SlotId v = 0; v < data.num_slots(); ++v) {
    if (data.providers(v).size() >= 2) {
      round.index_entries.push_back({v, 0.5, 1.0});
    }
  }
  LegacyTape tape;
  tape.generation = generation;
  tape.rounds.push_back(std::move(round));
  return tape;
}

// File framing (docs/FORMATS.md): a 32-byte header with the generation
// at byte 16 and the section count at byte 24, 32-byte table entries
// { u32 id, u32 reserved, u64 offset, u64 size, u64 checksum }, the
// u64 meta checksum over header + table, then the payloads at 8-byte
// aligned offsets.
inline constexpr size_t kFileHeaderSize = 32;
inline constexpr size_t kTableEntrySize = 32;
inline constexpr uint32_t kTapeSectionId = 5;

inline uint64_t LoadLe64(const std::vector<uint8_t>& bytes, size_t at) {
  uint64_t v = 0;
  std::memcpy(&v, bytes.data() + at, 8);
  return v;
}

/// The header's generation token.
inline uint64_t FileGeneration(const std::vector<uint8_t>& file) {
  return LoadLe64(file, 16);
}

/// The section ids of `file`, in table order.
inline std::vector<uint32_t> SectionIds(const std::vector<uint8_t>& file) {
  uint32_t count = 0;
  std::memcpy(&count, file.data() + 24, 4);
  std::vector<uint32_t> ids(count);
  for (uint32_t i = 0; i < count; ++i) {
    std::memcpy(&ids[i], file.data() + kFileHeaderSize + i * kTableEntrySize,
                4);
  }
  return ids;
}

/// `file` re-framed with one more section, `id` carrying `payload`, at
/// table position `position` (the end when past it). Every checksum is
/// recomputed with the one the file's version byte names, so only the
/// reader's own validation can refuse it.
inline std::vector<uint8_t> WithSection(const std::vector<uint8_t>& file,
                                        uint32_t id,
                                        const std::vector<uint8_t>& payload,
                                        size_t position = SIZE_MAX) {
  struct Section {
    uint32_t id;
    std::vector<uint8_t> payload;
  };
  std::vector<Section> sections;
  const std::vector<uint32_t> ids = SectionIds(file);
  for (size_t i = 0; i < ids.size(); ++i) {
    const size_t entry = kFileHeaderSize + i * kTableEntrySize;
    const size_t offset = LoadLe64(file, entry + 8);
    const size_t size = LoadLe64(file, entry + 16);
    sections.push_back(
        {ids[i], std::vector<uint8_t>(file.begin() + offset,
                                      file.begin() + offset + size)});
  }
  sections.insert(sections.begin() + std::min(position, sections.size()),
                  Section{id, payload});

  const uint32_t version = FileVersion(file);
  std::vector<uint8_t> out(file.begin(), file.begin() + kFileHeaderSize);
  const uint32_t count = static_cast<uint32_t>(sections.size());
  std::memcpy(out.data() + 24, &count, 4);
  const size_t table_end = kFileHeaderSize + count * kTableEntrySize;
  out.resize(table_end + 8);
  for (size_t i = 0; i < sections.size(); ++i) {
    while (out.size() % 8 != 0) out.push_back(0);
    const uint64_t offset = out.size();
    const uint64_t size = sections[i].payload.size();
    const uint64_t sum =
        SpecHash64(version, sections[i].payload.data(), size);
    uint8_t* entry = out.data() + kFileHeaderSize + i * kTableEntrySize;
    std::memset(entry, 0, kTableEntrySize);
    std::memcpy(entry, &sections[i].id, 4);
    std::memcpy(entry + 8, &offset, 8);
    std::memcpy(entry + 16, &size, 8);
    std::memcpy(entry + 24, &sum, 8);
    out.insert(out.end(), sections[i].payload.begin(),
               sections[i].payload.end());
  }
  const uint64_t meta = SpecHash64(version, out.data(), table_end);
  std::memcpy(out.data() + table_end, &meta, 8);
  return out;
}

/// `file` with a TAPE section appended.
inline std::vector<uint8_t> WithTape(const std::vector<uint8_t>& file,
                                     const LegacyTape& tape) {
  return WithSection(file, kTapeSectionId, EncodeTape(tape));
}

}  // namespace testutil
}  // namespace copydetect

#endif  // COPYDETECT_TESTS_LEGACY_TAPE_H_
