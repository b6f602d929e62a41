#include "snapshot/snapshot_io.h"

#include <dirent.h>
#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <bit>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <memory>
#include <span>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/flat_hash.h"
#include "common/stringutil.h"

namespace copydetect {

namespace snapshot_internal {

/// Friend-access shims: move the private arrays of the two structures
/// whose layout the format persists verbatim. Kept to dumb
/// field-shuttling so the wire logic below stays in one place.
struct DatasetSerde {
  /// Every array of a Dataset, each owned or viewing a mapped file
  /// (whichever Reader::Array decided for the file).
  struct Arrays {
    StringArray source_names;
    StringArray item_names;
    StringArray slot_value;
    ArrayStore<ItemId> slot_item;
    ArrayStore<SlotId> item_slot_begin;
    ArrayStore<uint32_t> provider_begin;
    ArrayStore<SourceId> providers;
    ArrayStore<uint32_t> src_begin;
    ArrayStore<ItemId> obs_item;
    ArrayStore<SlotId> obs_slot;
  };

  // Write-path accessors: serialization reads the arrays in place
  // (copying a large Dataset just to write it would double the Save
  // peak next to the byte buffer).
  static const StringArray& source_names(const Dataset& d) {
    return d.source_names_;
  }
  static const StringArray& item_names(const Dataset& d) {
    return d.item_names_;
  }
  static const StringArray& slot_value(const Dataset& d) {
    return d.slot_value_;
  }
  static const ArrayStore<ItemId>& slot_item(const Dataset& d) {
    return d.slot_item_;
  }
  static const ArrayStore<SlotId>& item_slot_begin(const Dataset& d) {
    return d.item_slot_begin_;
  }
  static const ArrayStore<uint32_t>& provider_begin(const Dataset& d) {
    return d.provider_begin_;
  }
  static const ArrayStore<SourceId>& providers(const Dataset& d) {
    return d.providers_;
  }
  static const ArrayStore<uint32_t>& src_begin(const Dataset& d) {
    return d.src_begin_;
  }
  static const ArrayStore<ItemId>& obs_item(const Dataset& d) {
    return d.obs_item_;
  }
  static const ArrayStore<SlotId>& obs_slot(const Dataset& d) {
    return d.obs_slot_;
  }

  /// Installs the arrays into `d` (which keeps the fresh generation
  /// it drew at construction — generations are process-local).
  static void Install(Arrays a, Dataset* d) {
    d->source_names_ = std::move(a.source_names);
    d->item_names_ = std::move(a.item_names);
    d->slot_value_ = std::move(a.slot_value);
    d->slot_item_ = std::move(a.slot_item);
    d->item_slot_begin_ = std::move(a.item_slot_begin);
    d->provider_begin_ = std::move(a.provider_begin);
    d->providers_ = std::move(a.providers);
    d->src_begin_ = std::move(a.src_begin);
    d->obs_item_ = std::move(a.obs_item);
    d->obs_slot_ = std::move(a.obs_slot);
  }
};

struct OverlapSerde {
  static bool dense_mode(const OverlapCounts& c) { return c.dense_mode_; }
  static SourceId num_sources(const OverlapCounts& c) {
    return c.num_sources_;
  }
  static const ArrayStore<uint32_t>& dense(const OverlapCounts& c) {
    return c.dense_;
  }
  static const FlatHashMap<uint32_t>& sparse(const OverlapCounts& c) {
    return c.sparse_;
  }

  /// `dense` is owned or a view into a mapped file (Reader::Array).
  static void Install(bool dense_mode, SourceId num_sources,
                      ArrayStore<uint32_t> dense,
                      FlatHashMap<uint32_t> sparse, OverlapCounts* out) {
    out->dense_mode_ = dense_mode;
    out->num_sources_ = num_sources;
    out->dense_ = std::move(dense);
    out->sparse_ = std::move(sparse);
  }
};

}  // namespace snapshot_internal

namespace snapshot {

namespace {

using snapshot_internal::DatasetSerde;
using snapshot_internal::OverlapSerde;

/// Little-endian loads, byte by byte (endian-correct on any host).
uint32_t LoadU32(const uint8_t* p) {
  uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= static_cast<uint32_t>(p[i]) << (8 * i);
  }
  return v;
}

uint64_t LoadU64(const uint8_t* p) {
  uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<uint64_t>(p[i]) << (8 * i);
  }
  return v;
}

// ---------------------------------------------------------------------
// Checksums: 8-byte little-endian words (the final partial word
// zero-padded) folded through Mix64 from an FNV-style length seed. Not
// cryptographic — they detect corruption, not tampering. Specified in
// docs/FORMATS.md so independent readers can verify files.

uint64_t LoadWord(const uint8_t* p) {
  if constexpr (std::endian::native == std::endian::little) {
    uint64_t word;
    std::memcpy(&word, p, 8);
    return word;
  } else {
    return LoadU64(p);
  }
}

/// The final `size % 8` bytes, zero-padded to a word.
uint64_t TailWord(const uint8_t* p, size_t size) {
  uint64_t word = 0;
  for (size_t j = 0; j < size; ++j) {
    word |= static_cast<uint64_t>(p[j]) << (8 * j);
  }
  return word;
}

uint64_t LengthSeed(size_t size) {
  return 0xcbf29ce484222325ULL ^
         (static_cast<uint64_t>(size) * 0x100000001b3ULL);
}

/// Versions 1 and 2: one chain through every word. Each Mix64 waits
/// for the one before it, so the chain runs at Mix64's latency.
uint64_t SerialHash64(const uint8_t* data, size_t size) {
  uint64_t h = LengthSeed(size);
  size_t i = 0;
  for (; i + 8 <= size; i += 8) h = Mix64(h ^ LoadWord(data + i));
  if (i < size) h = Mix64(h ^ TailWord(data + i, size - i));
  return h;
}

/// Version 3: word w goes to lane w mod 8, lane k starts at the length
/// seed + k, and the lanes fold in order into the length seed. The
/// eight chains are independent, so they run at Mix64's throughput.
uint64_t LaneHash64(const uint8_t* data, size_t size) {
  const uint64_t seed = LengthSeed(size);
  uint64_t lane[8];
  for (size_t k = 0; k < 8; ++k) lane[k] = seed + k;
  size_t i = 0;
  // Spelled out: gcc -O2 does not unroll a loop over the lanes here,
  // and that loop ran about a third slower.
  for (; i + 64 <= size; i += 64) {
    const uint8_t* block = data + i;
    lane[0] = Mix64(lane[0] ^ LoadWord(block));
    lane[1] = Mix64(lane[1] ^ LoadWord(block + 8));
    lane[2] = Mix64(lane[2] ^ LoadWord(block + 16));
    lane[3] = Mix64(lane[3] ^ LoadWord(block + 24));
    lane[4] = Mix64(lane[4] ^ LoadWord(block + 32));
    lane[5] = Mix64(lane[5] ^ LoadWord(block + 40));
    lane[6] = Mix64(lane[6] ^ LoadWord(block + 48));
    lane[7] = Mix64(lane[7] ^ LoadWord(block + 56));
  }
  size_t k = 0;
  for (; i + 8 <= size; i += 8, ++k) {
    lane[k] = Mix64(lane[k] ^ LoadWord(data + i));
  }
  if (i < size) lane[k] = Mix64(lane[k] ^ TailWord(data + i, size - i));
  uint64_t h = seed;
  for (uint64_t l : lane) h = Mix64(h ^ l);
  return h;
}

/// The checksum a file of format `version` seals its table and
/// payloads with.
uint64_t Checksum(uint32_t version, const uint8_t* data, size_t size) {
  return version >= 3 ? LaneHash64(data, size) : SerialHash64(data, size);
}

// ---------------------------------------------------------------------
// Fixed geometry. Layout (all integers little-endian):
//
//   [0,  8)  magic "CDSNAP\r\n"
//   [8, 12)  u32 format version
//   [12,16)  u32 flags (0 in versions 1 to 3)
//   [16,24)  u64 generation (save-time Dataset::generation())
//   [24,28)  u32 section count
//   [28,32)  u32 reserved (0)
//   then     section table: count x 32-byte entries
//            { u32 id, u32 reserved, u64 offset, u64 size, u64 checksum }
//   then     u64 meta checksum over bytes [0, table end)
//   then     section payloads at their recorded offsets (versions 2
//            and 3 pad every payload's start offset to 8 bytes; the
//            gap bytes are zero and excluded from the recorded size)
//
// Version 3 changes only the checksum (LaneHash64 above).

constexpr size_t kHeaderSize = 32;
constexpr size_t kTableEntrySize = 32;
constexpr uint32_t kMaxSections = 64;

struct TableEntry {
  uint32_t id = 0;
  uint64_t offset = 0;
  uint64_t size = 0;
  uint64_t checksum = 0;
};

// ---------------------------------------------------------------------
// Little-endian wire primitives. Scalars are encoded byte-wise (so the
// code is endian-correct by construction); bulk POD arrays take the
// memcpy fast path on little-endian hosts.

class Writer {
 public:
  void U8(uint8_t v) { bytes_.push_back(v); }

  void U32(uint32_t v) {
    for (int i = 0; i < 4; ++i) {
      bytes_.push_back(static_cast<uint8_t>(v >> (8 * i)));
    }
  }

  void U64(uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      bytes_.push_back(static_cast<uint8_t>(v >> (8 * i)));
    }
  }

  void F64(double v) { U64(std::bit_cast<uint64_t>(v)); }

  void Str(std::string_view s) {
    U64(s.size());
    bytes_.insert(bytes_.end(), s.begin(), s.end());
  }

  /// Zero-pads to the next 8-byte boundary relative to the payload
  /// start. Section payloads start 8-aligned in the file (version 2),
  /// so padding here lands the bytes 8-aligned on disk.
  void AlignTo8() {
    while (bytes_.size() % 8 != 0) bytes_.push_back(0);
  }

  template <typename T>
  void Vec(std::span<const T> v) {
    static_assert(sizeof(T) == 4 || sizeof(T) == 8);
    // Version 2: align so the element bytes after the 8-byte count
    // start on an 8-byte file offset — the mmap view requirement.
    AlignTo8();
    U64(v.size());
    if (v.empty()) return;  // data() may be null on an empty span
    if constexpr (std::endian::native == std::endian::little) {
      const uint8_t* raw = reinterpret_cast<const uint8_t*>(v.data());
      bytes_.insert(bytes_.end(), raw, raw + v.size() * sizeof(T));
    } else {
      for (const T& e : v) {
        if constexpr (sizeof(T) == 4) {
          U32(std::bit_cast<uint32_t>(e));
        } else {
          U64(std::bit_cast<uint64_t>(e));
        }
      }
    }
  }

  template <typename T>
  void Vec(const std::vector<T>& v) {
    Vec(std::span<const T>(v.data(), v.size()));
  }

  template <typename T>
  void Vec(const ArrayStore<T>& v) {
    Vec(v.span());
  }

  void StrVec(const std::vector<std::string>& v) {
    U64(v.size());
    for (const std::string& s : v) Str(s);
  }

  void StrVec(const StringArray& v) {
    U64(v.size());
    for (size_t i = 0; i < v.size(); ++i) Str(v[i]);
  }

  size_t size() const { return bytes_.size(); }
  const std::vector<uint8_t>& bytes() const { return bytes_; }
  std::vector<uint8_t>& bytes() { return bytes_; }

  /// Patches a previously written u64 at `offset` (section table
  /// back-fill).
  void PatchU64(size_t offset, uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      bytes_[offset + i] = static_cast<uint8_t>(v >> (8 * i));
    }
  }

  void PatchU32(size_t offset, uint32_t v) {
    for (int i = 0; i < 4; ++i) {
      bytes_[offset + i] = static_cast<uint8_t>(v >> (8 * i));
    }
  }

 private:
  std::vector<uint8_t> bytes_;
};

/// Bounds-checked reader over one section payload. Every accessor
/// reports failure through ok(); the caller turns the sticky error into
/// one descriptive Status per section.
class Reader {
 public:
  /// `aligned` selects the version-2 decode: array reads skip the
  /// writer's padding to the next 8-byte boundary before the count.
  /// Version-1 payloads pass false and decode the packed layout. A
  /// non-null `view_owner` owns the payload bytes and lets Array() and
  /// Strings() alias them instead of decoding copies.
  Reader(std::span<const uint8_t> payload, bool aligned,
         std::shared_ptr<const void> view_owner)
      : data_(payload.data()),
        size_(payload.size()),
        aligned_(aligned),
        view_owner_(std::move(view_owner)) {}

  bool ok() const { return ok_; }
  size_t remaining() const { return size_ - pos_; }

  uint8_t U8() {
    if (!Need(1)) return 0;
    return data_[pos_++];
  }

  uint32_t U32() {
    if (!Need(4)) return 0;
    pos_ += 4;
    return LoadU32(data_ + pos_ - 4);
  }

  uint64_t U64() {
    if (!Need(8)) return 0;
    pos_ += 8;
    return LoadU64(data_ + pos_ - 8);
  }

  double F64() { return std::bit_cast<double>(U64()); }

  std::string Str() { return std::string(StrView()); }

  /// The next `n` bytes, packed (no alignment padding).
  std::span<const uint8_t> Bytes(uint64_t n) {
    if (!Need(n)) return {};
    std::span<const uint8_t> raw(data_ + pos_, static_cast<size_t>(n));
    pos_ += raw.size();
    return raw;
  }

  /// A POD array decoded into an owned vector.
  template <typename T>
  std::vector<T> Vec() {
    const std::span<const uint8_t> raw = Elements(sizeof(T));
    std::vector<T> v(raw.size() / sizeof(T));
    if (v.empty()) return v;  // data() may be null on an empty vector
    if constexpr (std::endian::native == std::endian::little) {
      std::memcpy(v.data(), raw.data(), raw.size());
    } else {
      for (size_t i = 0; i < v.size(); ++i) {
        const uint8_t* p = raw.data() + i * sizeof(T);
        if constexpr (sizeof(T) == 4) {
          v[i] = std::bit_cast<T>(LoadU32(p));
        } else {
          v[i] = std::bit_cast<T>(LoadU64(p));
        }
      }
    }
    return v;
  }

  /// The array primitive behind every Dataset column and the dense
  /// overlap triangle: a view aliasing the payload when this reader
  /// has a view owner, a decoded copy (Vec) otherwise.
  template <typename T>
  ArrayStore<T> Array() {
    if (view_owner_ == nullptr) return Vec<T>();
    const std::span<const uint8_t> raw = Elements(sizeof(T));
    // Framing keeps version-2 arrays 8-aligned; refuse rather than
    // alias misaligned memory should that ever not hold.
    if (reinterpret_cast<uintptr_t>(raw.data()) % alignof(T) != 0) {
      ok_ = false;
    }
    if (!ok_) return {};
    return ArrayStore<T>::View(
        std::span<const T>(reinterpret_cast<const T*>(raw.data()),
                           raw.size() / sizeof(T)),
        view_owner_);
  }

  /// String-table counterpart of Array(). Strings are byte-aligned, so
  /// a view needs no alignment rules.
  StringArray Strings() {
    if (view_owner_ == nullptr) return StrVec<std::string>();
    return StringArray::View(StrVec<std::string_view>(), view_owner_);
  }

 private:
  bool Need(uint64_t n) {
    if (!ok_ || n > size_ - pos_) {
      ok_ = false;
      return false;
    }
    return true;
  }

  /// Skips the writer's padding to the next 8-byte boundary (aligned
  /// payloads only; version-1 payloads have none).
  void AlignTo8() {
    if (!aligned_) return;
    const size_t rem = pos_ % 8;
    if (rem != 0 && Need(8 - rem)) pos_ += 8 - rem;
  }

  std::string_view StrView() {
    const uint64_t n = U64();
    if (!Need(n)) return {};
    std::string_view s(reinterpret_cast<const char*>(data_ + pos_),
                       static_cast<size_t>(n));
    pos_ += s.size();
    return s;
  }

  /// The element bytes of the next array. Guards the multiply and the
  /// caller's allocation against a hostile count: each element needs
  /// `elem_size` payload bytes, so a count beyond remaining()/elem_size
  /// cannot be satisfied.
  std::span<const uint8_t> Elements(size_t elem_size) {
    AlignTo8();
    const uint64_t n = U64();
    if (!ok_ || n > remaining() / elem_size) {
      ok_ = false;
      return {};
    }
    std::span<const uint8_t> raw(data_ + pos_,
                                 static_cast<size_t>(n) * elem_size);
    pos_ += raw.size();
    return raw;
  }

  template <typename S>
  std::vector<S> StrVec() {
    const uint64_t n = U64();
    // Each string needs at least its 8-byte length prefix.
    if (!ok_ || n > remaining() / 8) {
      ok_ = false;
      return {};
    }
    std::vector<S> v;
    v.reserve(static_cast<size_t>(n));
    for (uint64_t i = 0; i < n && ok_; ++i) v.emplace_back(StrView());
    if (!ok_) return {};
    return v;
  }

  const uint8_t* data_;
  size_t size_;
  size_t pos_ = 0;
  bool aligned_;
  std::shared_ptr<const void> view_owner_;
  bool ok_ = true;
};

// ---------------------------------------------------------------------
// Section payloads.

void WriteOptions(const std::vector<OptionField>& options, Writer* w) {
  w->U64(options.size());
  for (const OptionField& f : options) {
    w->Str(f.name);
    w->U8(static_cast<uint8_t>(f.type));
    switch (f.type) {
      case OptionField::Type::kBool:
      case OptionField::Type::kUint:
        w->U64(f.uint_value);
        break;
      case OptionField::Type::kReal:
        w->F64(f.real_value);
        break;
      case OptionField::Type::kText:
        w->Str(f.text_value);
        break;
    }
  }
}

Status ReadOptions(Reader* r, std::vector<OptionField>* out) {
  uint64_t n = r->U64();
  for (uint64_t i = 0; i < n && r->ok(); ++i) {
    OptionField f;
    f.name = r->Str();
    uint8_t type = r->U8();
    if (type > static_cast<uint8_t>(OptionField::Type::kText)) {
      return Status::InvalidArgument(StrFormat(
          "snapshot: option '%s' has unknown type tag %u",
          f.name.c_str(), type));
    }
    f.type = static_cast<OptionField::Type>(type);
    switch (f.type) {
      case OptionField::Type::kBool:
      case OptionField::Type::kUint:
        f.uint_value = r->U64();
        break;
      case OptionField::Type::kReal:
        f.real_value = r->F64();
        break;
      case OptionField::Type::kText:
        f.text_value = r->Str();
        break;
    }
    out->push_back(std::move(f));
  }
  if (!r->ok()) {
    return Status::InvalidArgument(
        "snapshot: OPTIONS section truncated");
  }
  return Status::OK();
}

void WriteDataset(const Dataset& data, Writer* w) {
  w->U64(DatasetSerde::source_names(data).size());
  w->U64(DatasetSerde::item_names(data).size());
  w->U64(DatasetSerde::slot_value(data).size());
  w->U64(DatasetSerde::obs_item(data).size());
  w->StrVec(DatasetSerde::source_names(data));
  w->StrVec(DatasetSerde::item_names(data));
  w->StrVec(DatasetSerde::slot_value(data));
  w->Vec(DatasetSerde::slot_item(data));
  w->Vec(DatasetSerde::item_slot_begin(data));
  w->Vec(DatasetSerde::provider_begin(data));
  w->Vec(DatasetSerde::providers(data));
  w->Vec(DatasetSerde::src_begin(data));
  w->Vec(DatasetSerde::obs_item(data));
  w->Vec(DatasetSerde::obs_slot(data));
}

/// One CSR boundary array: starts at 0, non-decreasing, `rows + 1`
/// entries, ends exactly at `total`.
bool ValidCsr(std::span<const uint32_t> begin, size_t rows,
              size_t total) {
  if (begin.size() != rows + 1) return false;
  if (begin.front() != 0 || begin.back() != total) return false;
  for (size_t i = 1; i < begin.size(); ++i) {
    if (begin[i] < begin[i - 1]) return false;
  }
  return true;
}

bool AllBelow(std::span<const uint32_t> ids, size_t bound) {
  for (uint32_t id : ids) {
    if (id >= bound) return false;
  }
  return true;
}

/// Whether every row of the CSR (`begin`, `ids`) is strictly
/// ascending. `begin` must already be a valid CSR over `ids`.
bool RowsStrictlyAscending(std::span<const uint32_t> begin,
                           std::span<const uint32_t> ids) {
  for (size_t row = 0; row + 1 < begin.size(); ++row) {
    for (uint32_t k = begin[row] + 1; k < begin[row + 1]; ++k) {
      if (ids[k] <= ids[k - 1]) return false;
    }
  }
  return true;
}

/// Structural validation of a decoded DATASET section, owned or
/// mapped alike: everything the detection algorithms index with must
/// be in range, every CSR monotone, every provider list strictly
/// ascending (the row-owned sharded scans read a list's earlier id as
/// the smaller source of each pair) — a Dataset accepted here cannot
/// take the engine out of bounds or out of its partition.
Status ValidateDatasetShape(uint64_t num_sources, uint64_t num_items,
                            uint64_t num_slots, uint64_t num_obs,
                            const DatasetSerde::Arrays& a) {
  auto corrupt = [](const char* what) {
    return Status::InvalidArgument(
        std::string("snapshot: DATASET section inconsistent: ") + what);
  };
  if (a.source_names.size() != num_sources ||
      a.item_names.size() != num_items ||
      a.slot_value.size() != num_slots || a.obs_item.size() != num_obs) {
    return corrupt("array sizes disagree with the declared counts");
  }
  const std::span<const ItemId> slot_item = a.slot_item.span();
  const std::span<const SlotId> item_slot_begin = a.item_slot_begin.span();
  if (slot_item.size() != num_slots || !AllBelow(slot_item, num_items)) {
    return corrupt("slot->item mapping out of range");
  }
  if (!ValidCsr(item_slot_begin, num_items, num_slots)) {
    return corrupt("item->slot boundaries not a valid CSR");
  }
  for (uint64_t d = 0; d < num_items; ++d) {
    for (uint32_t v = item_slot_begin[d]; v < item_slot_begin[d + 1];
         ++v) {
      if (slot_item[v] != d) {
        return corrupt("slot->item mapping disagrees with the "
                       "item->slot boundaries");
      }
    }
  }
  if (!ValidCsr(a.provider_begin.span(), num_slots, a.providers.size()) ||
      !AllBelow(a.providers.span(), num_sources)) {
    return corrupt("provider lists not a valid CSR over sources");
  }
  if (!RowsStrictlyAscending(a.provider_begin.span(),
                             a.providers.span())) {
    return corrupt("provider list not strictly ascending");
  }
  if (!ValidCsr(a.src_begin.span(), num_sources, num_obs) ||
      a.obs_slot.size() != num_obs ||
      !AllBelow(a.obs_item.span(), num_items) ||
      !AllBelow(a.obs_slot.span(), num_slots)) {
    return corrupt("per-source observation arrays out of range");
  }
  return Status::OK();
}

Status ReadDataset(Reader* r, Dataset* out) {
  const uint64_t num_sources = r->U64();
  const uint64_t num_items = r->U64();
  const uint64_t num_slots = r->U64();
  const uint64_t num_obs = r->U64();
  DatasetSerde::Arrays a;
  a.source_names = r->Strings();
  a.item_names = r->Strings();
  a.slot_value = r->Strings();
  a.slot_item = r->Array<ItemId>();
  a.item_slot_begin = r->Array<SlotId>();
  a.provider_begin = r->Array<uint32_t>();
  a.providers = r->Array<SourceId>();
  a.src_begin = r->Array<uint32_t>();
  a.obs_item = r->Array<ItemId>();
  a.obs_slot = r->Array<SlotId>();
  if (!r->ok()) {
    return Status::InvalidArgument(
        "snapshot: DATASET section truncated");
  }
  CD_RETURN_IF_ERROR(ValidateDatasetShape(num_sources, num_items,
                                          num_slots, num_obs, a));
  DatasetSerde::Install(std::move(a), out);
  return Status::OK();
}

/// Refuses a pair key that names a source outside the data set or
/// that does not name its smaller source first: PairKey never writes
/// one, and Get, PrCopies and IsCopying could never reach it, though
/// it would still count as a pair. One branch-free pass; a second pass
/// names the first offender only when there is one.
Status CheckPairKeys(std::span<const uint64_t> keys, size_t num_sources,
                     const char* section) {
  bool bad = false;
  for (uint64_t key : keys) {
    bad |= (key != FlatHashMap<PairPosterior>::kEmptyKey) &
           ((PairFirst(key) >= PairSecond(key)) |
            (PairSecond(key) >= num_sources));
  }
  if (!bad) return Status::OK();
  for (uint64_t key : keys) {
    if (key == FlatHashMap<PairPosterior>::kEmptyKey) continue;
    if (PairSecond(key) >= num_sources || PairFirst(key) >= num_sources) {
      return Status::InvalidArgument(StrFormat(
          "snapshot: %s pair key out of source range", section));
    }
    if (PairFirst(key) >= PairSecond(key)) {
      return Status::InvalidArgument(StrFormat(
          "snapshot: %s pair key (%u, %u) does not name its smaller "
          "source first",
          section, PairFirst(key), PairSecond(key)));
    }
  }
  return Status::OK();
}

void WriteRawMapU32(const FlatHashMap<uint32_t>& map, Writer* w) {
  w->Vec(map.raw_keys());
  w->Vec(map.raw_values());
}

void WriteOverlaps(const SessionState& state, Writer* w) {
  w->U64(state.overlaps_generation);
  const OverlapCounts& c = state.overlaps;
  w->U8(OverlapSerde::dense_mode(c) ? 1 : 0);
  w->U32(OverlapSerde::num_sources(c));
  w->Vec(OverlapSerde::dense(c));
  WriteRawMapU32(OverlapSerde::sparse(c), w);
}

Status ReadOverlaps(Reader* r, size_t num_sources, SessionState* out) {
  out->overlaps_generation = r->U64();
  const bool dense_mode = r->U8() != 0;
  const uint32_t n = r->U32();
  // The dense triangle (the O(n^2) part) may alias a mapped file; the
  // sparse table stays owned (FlatHashMap owns its storage), which is
  // fine — it is sized to the surviving pairs, not the pair space.
  ArrayStore<uint32_t> dense = r->Array<uint32_t>();
  std::vector<uint64_t> keys = r->Vec<uint64_t>();
  std::vector<uint32_t> values = r->Vec<uint32_t>();
  if (!r->ok()) {
    return Status::InvalidArgument(
        "snapshot: OVERLAPS section truncated");
  }
  if (n != num_sources) {
    return Status::InvalidArgument(
        StrFormat("snapshot: OVERLAPS counts cover %u sources but the "
                  "data set has %zu",
                  n, num_sources));
  }
  const size_t expected_dense =
      dense_mode ? static_cast<size_t>(n) * (n - 1) / 2 : 0;
  if (dense.size() != expected_dense) {
    return Status::InvalidArgument(
        "snapshot: OVERLAPS dense triangle has the wrong size");
  }
  CD_RETURN_IF_ERROR(CheckPairKeys(keys, num_sources, "OVERLAPS"));
  FlatHashMap<uint32_t> sparse;
  if (!sparse.AssignRaw(std::move(keys), std::move(values))) {
    return Status::InvalidArgument(
        "snapshot: OVERLAPS sparse table is not a valid hash table");
  }
  OverlapSerde::Install(dense_mode, n, std::move(dense),
                        std::move(sparse), &out->overlaps);
  out->has_overlaps = true;
  return Status::OK();
}

void WriteCopies(const CopyResult& copies, Writer* w) {
  const FlatHashMap<PairPosterior>& map = copies.raw_map();
  w->Vec(map.raw_keys());
  w->U64(map.raw_values().size());
  for (const PairPosterior& p : map.raw_values()) {
    w->F64(p.p_indep);
    w->F64(p.p_first_copies);
    w->F64(p.p_second_copies);
  }
}

/// The posterior array of a copy result: `n` packed triples of f64,
/// decoded through one bounds-checked span.
std::vector<PairPosterior> DecodePosteriors(std::span<const uint8_t> raw) {
  static_assert(sizeof(PairPosterior) == 24 &&
                std::is_trivially_copyable_v<PairPosterior>);
  std::vector<PairPosterior> values(raw.size() / sizeof(PairPosterior));
  if (values.empty()) return values;  // data() may be null when empty
  if constexpr (std::endian::native == std::endian::little) {
    std::memcpy(values.data(), raw.data(), raw.size());
  } else {
    for (size_t i = 0; i < values.size(); ++i) {
      const uint8_t* p = raw.data() + i * sizeof(PairPosterior);
      values[i].p_indep = std::bit_cast<double>(LoadU64(p));
      values[i].p_first_copies = std::bit_cast<double>(LoadU64(p + 8));
      values[i].p_second_copies = std::bit_cast<double>(LoadU64(p + 16));
    }
  }
  return values;
}

Status ReadCopies(Reader* r, size_t num_sources, const char* section,
                  CopyResult* out) {
  std::vector<uint64_t> keys = r->Vec<uint64_t>();
  const uint64_t n = r->U64();
  if (!r->ok() || n > r->remaining() / sizeof(PairPosterior)) {
    return Status::InvalidArgument(
        StrFormat("snapshot: %s section truncated", section));
  }
  std::vector<PairPosterior> values =
      DecodePosteriors(r->Bytes(n * sizeof(PairPosterior)));
  CD_RETURN_IF_ERROR(CheckPairKeys(keys, num_sources, section));
  FlatHashMap<PairPosterior> map;
  if (!map.AssignRaw(std::move(keys), std::move(values))) {
    return Status::InvalidArgument(StrFormat(
        "snapshot: %s pair map is not a valid hash table", section));
  }
  *out = CopyResult::FromRawMap(std::move(map));
  return Status::OK();
}

void WriteFusion(const FusionResult& f, Writer* w) {
  w->Vec(f.value_probs);
  w->Vec(f.accuracies);
  w->Vec(f.truth);
  WriteCopies(f.copies, w);
  w->U32(static_cast<uint32_t>(f.rounds));
  w->U8(f.converged ? 1 : 0);
  w->U64(f.trace.size());
  for (const RoundTrace& t : f.trace) {
    w->U32(static_cast<uint32_t>(t.round));
    w->F64(t.detect_seconds);
    w->F64(t.detect_cpu_seconds);
    w->F64(t.fusion_seconds);
    w->U64(t.computations);
    w->U64(t.copying_pairs);
    w->F64(t.max_accuracy_change);
  }
  w->F64(f.total_seconds);
  w->F64(f.detect_seconds);
  w->F64(f.detect_cpu_seconds);
}

Status ReadFusion(Reader* r, const Dataset& data, FusionResult* out) {
  out->value_probs = r->Vec<double>();
  out->accuracies = r->Vec<double>();
  out->truth = r->Vec<SlotId>();
  CD_RETURN_IF_ERROR(
      ReadCopies(r, data.num_sources(), "FUSION", &out->copies));
  out->rounds = static_cast<int>(r->U32());
  out->converged = r->U8() != 0;
  const uint64_t traces = r->U64();
  if (!r->ok() || traces > r->remaining() / 52) {
    return Status::InvalidArgument(
        "snapshot: FUSION section truncated");
  }
  out->trace.resize(static_cast<size_t>(traces));
  for (RoundTrace& t : out->trace) {
    t.round = static_cast<int>(r->U32());
    t.detect_seconds = r->F64();
    t.detect_cpu_seconds = r->F64();
    t.fusion_seconds = r->F64();
    t.computations = r->U64();
    t.copying_pairs = static_cast<size_t>(r->U64());
    t.max_accuracy_change = r->F64();
  }
  out->total_seconds = r->F64();
  out->detect_seconds = r->F64();
  out->detect_cpu_seconds = r->F64();
  if (!r->ok()) {
    return Status::InvalidArgument(
        "snapshot: FUSION section truncated");
  }
  if (out->value_probs.size() != data.num_slots() ||
      out->accuracies.size() != data.num_sources() ||
      out->truth.size() != data.num_items()) {
    return Status::InvalidArgument(
        "snapshot: FUSION arrays disagree with the data set's "
        "dimensions");
  }
  for (SlotId v : out->truth) {
    if (v != kInvalidSlot && v >= data.num_slots()) {
      return Status::InvalidArgument(
          "snapshot: FUSION truth slot out of range");
    }
  }
  return Status::OK();
}

/// Validates a legacy TAPE section — the update-replay tape older
/// writers emitted (docs/FORMATS.md) — against the data set and the
/// file's generation, then drops it: nothing reads the tape any more,
/// but a malformed one still fails the load.
Status CheckLegacyTape(Reader* r, const Dataset& data,
                       uint64_t generation, const std::string& path) {
  auto truncated = [] {
    return Status::InvalidArgument("snapshot: TAPE section truncated");
  };
  const uint64_t tape_generation = r->U64();
  r->U8();  // whether rounds carry copy results (unused)
  const uint64_t rounds = r->U64();
  // Hostile-count guard sized to a round's minimum wire footprint
  // (two empty vectors + an empty copy map + the index flag, > 33
  // bytes), so a small crafted file cannot spin a huge loop.
  if (!r->ok() || rounds > r->remaining() / 33) return truncated();
  std::vector<uint8_t> seen;
  for (uint64_t i = 0; i < rounds; ++i) {
    const size_t probs = r->Vec<double>().size();
    const size_t accs = r->Vec<double>().size();
    CopyResult copies;
    CD_RETURN_IF_ERROR(ReadCopies(r, data.num_sources(), "TAPE", &copies));
    if (r->U8() != 0) {
      // A round-1 inverted index: u32 slot + f64 probability + f64
      // score per entry, then the tail boundary and the ordering.
      const uint64_t entries = r->U64();
      if (!r->ok() || entries > r->remaining() / 20) return truncated();
      seen.assign(data.num_slots(), 0);
      for (uint64_t k = 0; k < entries; ++k) {
        const SlotId slot = r->U32();
        r->F64();
        r->F64();
        if (slot >= data.num_slots()) {
          return Status::InvalidArgument(StrFormat(
              "snapshot: TAPE index entry slot %u out of range "
              "(num_slots %zu)",
              slot, data.num_slots()));
        }
        if (seen[slot] != 0) {
          return Status::InvalidArgument(StrFormat(
              "snapshot: TAPE index has a duplicate entry for slot %u",
              slot));
        }
        seen[slot] = 1;
        if (data.providers(slot).size() < 2) {
          return Status::InvalidArgument(StrFormat(
              "snapshot: TAPE index entry slot %u has fewer than 2 "
              "providers",
              slot));
        }
      }
      const uint64_t tail_begin = r->U64();
      const uint8_t ordering = r->U8();
      if (!r->ok()) return truncated();
      if (ordering > 2) {  // 0 by-contribution, 1 by-provider, 2 random
        return Status::InvalidArgument(StrFormat(
            "snapshot: TAPE round %llu has unknown index ordering %u",
            static_cast<unsigned long long>(i), ordering));
      }
      if (tail_begin > entries) {
        return Status::InvalidArgument(StrFormat(
            "snapshot: TAPE index tail_begin %llu past the %llu entries",
            static_cast<unsigned long long>(tail_begin),
            static_cast<unsigned long long>(entries)));
      }
    }
    if (!r->ok()) return truncated();
    if (probs != 0 && probs != data.num_slots()) {
      return Status::InvalidArgument(
          "snapshot: TAPE round value probabilities disagree with the "
          "data set's slot count");
    }
    if (accs != data.num_sources()) {
      return Status::InvalidArgument(
          "snapshot: TAPE round accuracies disagree with the data "
          "set's source count");
    }
  }
  if (tape_generation != generation) {
    return Status::InvalidArgument(StrFormat(
        "snapshot: %s: generation mismatch — the update TAPE was "
        "recorded for generation %llu but the file's snapshot is "
        "generation %llu; refusing to warm-start derived state "
        "against a different data set",
        path.c_str(), static_cast<unsigned long long>(tape_generation),
        static_cast<unsigned long long>(generation)));
  }
  return Status::OK();
}

}  // namespace

OptionField OptionField::Bool(std::string name, bool v) {
  OptionField f;
  f.name = std::move(name);
  f.type = Type::kBool;
  f.uint_value = v ? 1 : 0;
  return f;
}

OptionField OptionField::Uint(std::string name, uint64_t v) {
  OptionField f;
  f.name = std::move(name);
  f.type = Type::kUint;
  f.uint_value = v;
  return f;
}

OptionField OptionField::Real(std::string name, double v) {
  OptionField f;
  f.name = std::move(name);
  f.type = Type::kReal;
  f.real_value = v;
  return f;
}

OptionField OptionField::Text(std::string name, std::string v) {
  OptionField f;
  f.name = std::move(name);
  f.type = Type::kText;
  f.text_value = std::move(v);
  return f;
}

namespace {

/// Temp-and-rename in the target directory so a crash mid-write
/// cannot leave a torn file under the final name (rename within one
/// directory is atomic on POSIX). fflush moves the bytes to the
/// kernel; fsync moves them to the device — without the latter, the
/// rename can commit the new name while the data is still only in the
/// page cache, and a power loss would replace a good file with a torn
/// one.
Status WriteFileAtomic(const std::string& path,
                       const std::vector<uint8_t>& bytes) {
  const std::string tmp_path = path + ".tmp";
  std::FILE* f = std::fopen(tmp_path.c_str(), "wb");
  if (f == nullptr) {
    return Status::IOError("cannot open " + tmp_path + " for writing");
  }
  const size_t written = std::fwrite(bytes.data(), 1, bytes.size(), f);
  const bool flushed = std::fflush(f) == 0 && fsync(fileno(f)) == 0;
  const bool closed = std::fclose(f) == 0;
  if (written != bytes.size() || !flushed || !closed) {
    std::remove(tmp_path.c_str());
    return Status::IOError("short write to " + tmp_path);
  }
  if (std::rename(tmp_path.c_str(), path.c_str()) != 0) {
    std::remove(tmp_path.c_str());
    return Status::IOError("cannot rename " + tmp_path + " to " + path);
  }
  return Status::OK();
}

/// Assembles the framed file around the given section payloads:
/// header, table, meta checksum, then the payloads with each start
/// offset padded to 8 bytes (the version-2 alignment invariant; the
/// zero gap bytes are excluded from the recorded sizes). The payload
/// area itself starts 8-aligned by construction: 32-byte header +
/// 32-byte entries + 8-byte meta checksum.
std::vector<uint8_t> FrameSections(
    uint64_t generation,
    const std::vector<std::pair<SectionId, Writer>>& sections) {
  Writer file;
  for (unsigned char c : kMagic) file.U8(c);
  file.U32(kFormatVersion);
  file.U32(0);  // flags
  file.U64(generation);
  file.U32(static_cast<uint32_t>(sections.size()));
  file.U32(0);  // reserved

  const size_t table_begin = file.size();
  uint64_t payload_offset = table_begin +
                            sections.size() * kTableEntrySize +
                            8;  // + meta checksum
  for (const auto& [id, payload] : sections) {
    payload_offset = (payload_offset + 7) & ~uint64_t{7};
    file.U32(static_cast<uint32_t>(id));
    file.U32(0);  // per-section reserved/version
    file.U64(payload_offset);
    file.U64(payload.size());
    file.U64(Checksum(kFormatVersion, payload.bytes().data(),
                      payload.size()));
    payload_offset += payload.size();
  }
  file.U64(Checksum(kFormatVersion, file.bytes().data(), file.size()));
  for (const auto& [id, payload] : sections) {
    file.AlignTo8();
    file.bytes().insert(file.bytes().end(), payload.bytes().begin(),
                        payload.bytes().end());
  }
  return std::move(file.bytes());
}

// ---------------------------------------------------------------------
// Reading: one opener and one framing check serve every snapshot,
// owned and mapped alike.

/// Unmaps a snapshot mapping once the last ArrayStore view into it (and
/// the File that created it) is gone.
class Mapping {
 public:
  Mapping(void* base, size_t size) : base_(base), size_(size) {}
  ~Mapping() { munmap(base_, size_); }
  Mapping(const Mapping&) = delete;
  Mapping& operator=(const Mapping&) = delete;

 private:
  void* base_;
  size_t size_;
};

/// One opened file: its bytes, what keeps them alive (a heap buffer or
/// a Mapping) and, once ParseFraming accepts it, its section table.
struct File {
  std::shared_ptr<const void> owner;
  std::span<const uint8_t> bytes;
  uint32_t version = 0;
  uint64_t generation = 0;
  std::vector<TableEntry> entries;
  /// Whether arrays alias `bytes` instead of decoding into copies.
  /// Decided once per file: mapped, version 2 or later (aligned
  /// arrays) and a little-endian host (the on-disk words are
  /// little-endian).
  bool views = false;

  Reader Section(const TableEntry& e) const {
    return Reader(bytes.subspan(static_cast<size_t>(e.offset),
                                static_cast<size_t>(e.size)),
                  version >= 2, views ? owner : nullptr);
  }
};

/// Brings `path` into memory: one read of exactly its size into a heap
/// buffer, or a read-only mapping when `map`. An owned load keeps
/// reading rather than mapping so the session never depends on the
/// file, not even during the load. Only a regular file is accepted:
/// O_NONBLOCK keeps open() from waiting for a FIFO's writer, and the
/// fstat check refuses a FIFO, device or directory before any read.
Status OpenBytes(const std::string& path, bool map, File* out) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_NONBLOCK | O_CLOEXEC);
  if (fd < 0) {
    if (errno == ENOENT) {
      return Status::NotFound("snapshot file not found: " + path);
    }
    return Status::IOError("cannot open snapshot file " + path + ": " +
                           std::strerror(errno));
  }
  struct stat st;
  if (fstat(fd, &st) != 0 || !S_ISREG(st.st_mode)) {
    ::close(fd);
    return Status::IOError("snapshot: " + path +
                           ": not a regular file — refusing to read it");
  }
  const size_t size = static_cast<size_t>(st.st_size);
  if (size == 0) {
    ::close(fd);  // nothing to read or map; framing reports truncation
    return Status::OK();
  }
  if (map) {
    // MAP_PRIVATE: the pages are read-only to us either way, but
    // private mapping keeps a concurrent writer (which snapshot::Write
    // never is, thanks to rename-replace, but an ill-behaved tool could
    // be) from feeding us bytes that change after validation on some
    // systems.
    void* base = mmap(nullptr, size, PROT_READ, MAP_PRIVATE, fd, 0);
    ::close(fd);  // the mapping holds its own reference
    if (base == MAP_FAILED) {
      return Status::IOError("cannot mmap snapshot file: " + path);
    }
    out->owner = std::make_shared<const Mapping>(base, size);
    out->bytes = {static_cast<const uint8_t*>(base), size};
    return Status::OK();
  }
  std::shared_ptr<uint8_t[]> buffer =
      std::make_unique_for_overwrite<uint8_t[]>(size);
  size_t done = 0;
  while (done < size) {
    const ssize_t n = ::read(fd, buffer.get() + done, size - done);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;
    done += static_cast<size_t>(n);
  }
  ::close(fd);
  if (done != size) {
    return Status::IOError("cannot read snapshot file: " + path);
  }
  out->bytes = {buffer.get(), size};
  out->owner = std::move(buffer);
  return Status::OK();
}

/// Validates everything up to (and including) the per-section
/// checksums: magic, version range, section count, table bounds, meta
/// checksum, section alignment (version 2 on), payload checksums —
/// both checksums the one the header's version names.
Status ParseFraming(const std::string& path, File* file) {
  const std::span<const uint8_t> bytes = file->bytes;
  if (bytes.size() < kHeaderSize) {
    return Status::InvalidArgument(StrFormat(
        "snapshot: %s: file truncated (%zu bytes, header needs %zu)",
        path.c_str(), bytes.size(), kHeaderSize));
  }
  if (std::memcmp(bytes.data(), kMagic, sizeof(kMagic)) != 0) {
    return Status::InvalidArgument(
        "snapshot: " + path + ": bad magic — not a copydetect snapshot "
        "file (or mangled in transit)");
  }
  file->version = LoadU32(bytes.data() + 8);
  // Bytes [12, 16) are the flags, ignored in versions 1 to 3.
  file->generation = LoadU64(bytes.data() + 16);
  const uint32_t section_count = LoadU32(bytes.data() + 24);
  if (file->version < kMinReadVersion || file->version > kFormatVersion) {
    return Status::InvalidArgument(StrFormat(
        "snapshot: %s: format version %u not supported (this build "
        "reads versions %u through %u) — refusing rather than guessing "
        "at the layout",
        path.c_str(), file->version, kMinReadVersion, kFormatVersion));
  }
  if (section_count == 0 || section_count > kMaxSections) {
    return Status::InvalidArgument(StrFormat(
        "snapshot: %s: implausible section count %u", path.c_str(),
        section_count));
  }
  const size_t table_end =
      kHeaderSize + static_cast<size_t>(section_count) * kTableEntrySize;
  if (bytes.size() < table_end + 8) {
    return Status::InvalidArgument(
        "snapshot: " + path + ": file truncated inside the section "
        "table");
  }
  if (LoadU64(bytes.data() + table_end) !=
      Checksum(file->version, bytes.data(), table_end)) {
    return Status::InvalidArgument(
        "snapshot: " + path + ": header/section-table checksum "
        "mismatch — file corrupt");
  }

  file->entries.resize(section_count);
  for (uint32_t i = 0; i < section_count; ++i) {
    const uint8_t* raw = bytes.data() + kHeaderSize + i * kTableEntrySize;
    TableEntry& e = file->entries[i];
    e.id = LoadU32(raw);  // then a reserved u32
    e.offset = LoadU64(raw + 8);
    e.size = LoadU64(raw + 16);
    e.checksum = LoadU64(raw + 24);
    if (e.offset > bytes.size() || e.size > bytes.size() - e.offset) {
      return Status::InvalidArgument(StrFormat(
          "snapshot: %s: section %u extends past the end of the file "
          "(offset %llu, size %llu, file %zu bytes) — file truncated "
          "or table corrupt",
          path.c_str(), e.id,
          static_cast<unsigned long long>(e.offset),
          static_cast<unsigned long long>(e.size), bytes.size()));
    }
    // The writer pads every section to 8 bytes from version 2 on; a
    // misaligned one can only come from a forged or corrupt table, and
    // the mapped decode would alias misaligned memory.
    if (file->version >= 2 && e.offset % 8 != 0) {
      return Status::InvalidArgument(StrFormat(
          "snapshot: %s: section %u starts at misaligned offset %llu "
          "in a version-%u file — table forged or corrupt",
          path.c_str(), e.id, static_cast<unsigned long long>(e.offset),
          file->version));
    }
    if (Checksum(file->version, bytes.data() + e.offset,
                 static_cast<size_t>(e.size)) != e.checksum) {
      return Status::InvalidArgument(StrFormat(
          "snapshot: %s: section %u checksum mismatch — file corrupt",
          path.c_str(), e.id));
    }
  }
  return Status::OK();
}

StatusOr<File> OpenFile(const std::string& path, bool map) {
  File file;
  CD_RETURN_IF_ERROR(OpenBytes(path, map, &file));
  CD_RETURN_IF_ERROR(ParseFraming(path, &file));
  file.views = map && file.version >= 2 &&
               std::endian::native == std::endian::little;
  return file;
}

/// The one section walk behind Read and ReadMapped.
StatusOr<SessionState> ReadSession(const std::string& path, bool map) {
  auto opened = OpenFile(path, map);
  if (!opened.ok()) return opened.status();
  const File& file = *opened;

  // --- Payloads, in table order. The DATASET section must precede
  // the sections validated against it; Write emits them in id order,
  // which satisfies this. ---
  SessionState state;
  state.generation = file.generation;
  bool saw_options = false;
  bool saw_dataset = false;
  bool saw_fusion = false;
  bool saw_tape = false;
  for (const TableEntry& e : file.entries) {
    // A repeated id is never legitimate: a second DATASET would
    // replace the data set earlier sections were validated against —
    // fail closed instead.
    const bool duplicate =
        (e.id == static_cast<uint32_t>(SectionId::kOptions) &&
         saw_options) ||
        (e.id == static_cast<uint32_t>(SectionId::kDataset) &&
         saw_dataset) ||
        (e.id == static_cast<uint32_t>(SectionId::kOverlaps) &&
         state.has_overlaps) ||
        (e.id == static_cast<uint32_t>(SectionId::kFusion) &&
         saw_fusion) ||
        (e.id == static_cast<uint32_t>(SectionId::kTape) && saw_tape);
    if (duplicate) {
      return Status::InvalidArgument(StrFormat(
          "snapshot: %s: duplicate section id %u", path.c_str(),
          e.id));
    }
    Reader r = file.Section(e);
    switch (static_cast<SectionId>(e.id)) {
      case SectionId::kOptions:
        CD_RETURN_IF_ERROR(ReadOptions(&r, &state.options));
        saw_options = true;
        break;
      case SectionId::kDataset:
        CD_RETURN_IF_ERROR(ReadDataset(&r, &state.data));
        saw_dataset = true;
        break;
      case SectionId::kOverlaps:
        if (!saw_dataset) {
          return Status::InvalidArgument(
              "snapshot: " + path + ": OVERLAPS section before "
              "DATASET");
        }
        CD_RETURN_IF_ERROR(
            ReadOverlaps(&r, state.data.num_sources(), &state));
        break;
      case SectionId::kFusion:
        if (!saw_dataset) {
          return Status::InvalidArgument(
              "snapshot: " + path + ": FUSION section before DATASET");
        }
        CD_RETURN_IF_ERROR(ReadFusion(&r, state.data, &state.fusion));
        saw_fusion = true;
        break;
      case SectionId::kTape:
        if (!saw_dataset) {
          return Status::InvalidArgument(
              "snapshot: " + path + ": TAPE section before DATASET");
        }
        CD_RETURN_IF_ERROR(
            CheckLegacyTape(&r, state.data, file.generation, path));
        saw_tape = true;
        break;
      default:
        // Session snapshots define exactly the sections above (ids 6
        // and 7 are retired, never reused); an unknown id within a
        // known version means the file does not match its declared
        // version (new state ships with a version bump).
        return Status::InvalidArgument(StrFormat(
            "snapshot: %s: unknown section id %u in a version-%u file",
            path.c_str(), e.id, file.version));
    }
  }
  if (!saw_options || !saw_dataset || !saw_fusion) {
    return Status::InvalidArgument(
        "snapshot: " + path + ": missing a required section (OPTIONS, "
        "DATASET and FUSION are mandatory)");
  }

  // --- Cross-section generation consistency: derived state must have
  // been computed for the very snapshot in this file. ---
  if (state.has_overlaps &&
      state.overlaps_generation != file.generation) {
    return Status::InvalidArgument(StrFormat(
        "snapshot: %s: generation mismatch — OVERLAPS were computed "
        "for generation %llu but the file's snapshot is generation "
        "%llu; refusing to warm-start derived state against a "
        "different data set",
        path.c_str(),
        static_cast<unsigned long long>(state.overlaps_generation),
        static_cast<unsigned long long>(file.generation)));
  }
  return state;
}

}  // namespace

Status Write(const std::string& path, const SessionState& state) {
  // Serialize every present section payload first; the table is
  // back-filled once offsets are known.
  std::vector<std::pair<SectionId, Writer>> sections;
  {
    Writer w;
    WriteOptions(state.options, &w);
    sections.emplace_back(SectionId::kOptions, std::move(w));
  }
  {
    Writer w;
    WriteDataset(state.data, &w);
    sections.emplace_back(SectionId::kDataset, std::move(w));
  }
  if (state.has_overlaps) {
    Writer w;
    WriteOverlaps(state, &w);
    sections.emplace_back(SectionId::kOverlaps, std::move(w));
  }
  {
    Writer w;
    WriteFusion(state.fusion, &w);
    sections.emplace_back(SectionId::kFusion, std::move(w));
  }

  return WriteFileAtomic(path, FrameSections(state.generation, sections));
}

StatusOr<std::vector<std::string>> ListSnapshotFiles(
    const std::string& dir) {
  DIR* d = ::opendir(dir.c_str());
  if (d == nullptr) {
    if (errno == ENOENT || errno == ENOTDIR) {
      return Status::NotFound("snapshot scan: no directory at '" + dir +
                              "'");
    }
    return Status::IOError("snapshot scan: opendir('" + dir +
                           "') failed: " + std::strerror(errno));
  }
  constexpr std::string_view kExt = ".cdsnap";
  std::vector<std::string> out;
  for (struct dirent* entry = ::readdir(d); entry != nullptr;
       entry = ::readdir(d)) {
    std::string_view name(entry->d_name);
    if (name.size() <= kExt.size() ||
        name.substr(name.size() - kExt.size()) != kExt) {
      continue;
    }
    out.push_back(dir + "/" + std::string(name));
  }
  ::closedir(d);
  std::sort(out.begin(), out.end());
  return out;
}

StatusOr<SessionState> Read(const std::string& path) {
  return ReadSession(path, /*map=*/false);
}

StatusOr<SessionState> ReadMapped(const std::string& path) {
  return ReadSession(path, /*map=*/true);
}

}  // namespace snapshot
}  // namespace copydetect
