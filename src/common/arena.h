#ifndef COPYDETECT_COMMON_ARENA_H_
#define COPYDETECT_COMMON_ARENA_H_

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <type_traits>
#include <vector>

#include "common/flat_hash.h"

namespace copydetect {

/// Bump allocator for per-round scan scratch (pair-state tables,
/// per-source counters). Allocation is a pointer increment; nothing is
/// freed individually. Reset() recycles everything at once and — after
/// a round that spilled into multiple chunks — consolidates the
/// reservation into a single chunk sized to the observed high-water
/// mark, so a steady-state round allocates from one warm chunk and
/// never touches the system allocator.
///
/// Only trivially-destructible payloads belong here: Reset() reclaims
/// memory without running destructors. Instances are not thread-safe;
/// each scan shard works from its own arena (see Executor::AcquireArena).
class Arena {
 public:
  explicit Arena(size_t initial_bytes = 0) {
    if (initial_bytes > 0) AddChunk(initial_bytes);
  }

  Arena(const Arena&) = delete;
  Arena& operator=(const Arena&) = delete;

  /// Returns `bytes` of storage aligned to `align` (a power of two no
  /// larger than alignof(std::max_align_t)).
  void* AllocateBytes(size_t bytes, size_t align) {
    assert(align > 0 && (align & (align - 1)) == 0);
    assert(align <= alignof(std::max_align_t));
    if (bytes == 0) bytes = 1;
    if (!chunks_.empty()) {
      Chunk& c = chunks_.back();
      size_t aligned = (c.used + align - 1) & ~(align - 1);
      if (aligned + bytes <= c.capacity) {
        c.used = aligned + bytes;
        return c.data.get() + aligned;
      }
    }
    // Chunk start is max_align_t-aligned, so no padding needed here.
    AddChunk(bytes);
    Chunk& c = chunks_.back();
    c.used = bytes;
    return c.data.get();
  }

  /// Returns an uninitialized array of `count` T. T must be trivially
  /// destructible (Reset never runs destructors).
  template <typename T>
  T* AllocateArray(size_t count) {
    static_assert(std::is_trivially_destructible_v<T>,
                  "Arena storage is reclaimed without destructors");
    return static_cast<T*>(AllocateBytes(count * sizeof(T), alignof(T)));
  }

  /// Recycles all allocations. Keeps a single chunk covering the
  /// high-water mark of every round so far; a steady-state caller
  /// therefore reaches malloc only while its working set still grows.
  void Reset() {
    size_t used = 0;
    for (const Chunk& c : chunks_) used += c.used;
    if (used > high_water_) high_water_ = used;
    if (chunks_.size() == 1 && chunks_.front().capacity >= high_water_) {
      chunks_.front().used = 0;
      return;
    }
    chunks_.clear();
    if (high_water_ > 0) AddChunk(high_water_);
  }

  /// Bytes handed out since the last Reset (padding included).
  size_t bytes_used() const {
    size_t used = 0;
    for (const Chunk& c : chunks_) used += c.used;
    return used;
  }

  /// Total capacity currently reserved from the system allocator.
  size_t bytes_reserved() const {
    size_t cap = 0;
    for (const Chunk& c : chunks_) cap += c.capacity;
    return cap;
  }

  size_t num_chunks() const { return chunks_.size(); }

 private:
  struct Chunk {
    std::unique_ptr<std::byte[]> data;
    size_t capacity = 0;
    size_t used = 0;
  };

  void AddChunk(size_t min_bytes) {
    size_t cap = chunks_.empty() ? kMinChunkBytes
                                 : chunks_.back().capacity * 2;
    if (cap < min_bytes) cap = min_bytes;
    Chunk c;
    // operator new[] on std::byte returns max_align_t-aligned storage;
    // for_overwrite skips the value-initializing memset.
    c.data = std::make_unique_for_overwrite<std::byte[]>(cap);
    c.capacity = cap;
    chunks_.push_back(std::move(c));
  }

  static constexpr size_t kMinChunkBytes = size_t{64} << 10;

  std::vector<Chunk> chunks_;
  size_t high_water_ = 0;
};

/// Minimal std-style allocator over an Arena, for containers holding
/// one round's scratch. deallocate is a no-op: a container's released
/// storage (a hash table's arrays abandoned by growth, say) stays in
/// the arena until its Reset, so the waste is bounded by the final
/// container size. Converts implicitly from Arena*, so a container
/// whose constructor takes an allocator can take the arena itself.
template <typename T>
class ArenaAllocator {
 public:
  using value_type = T;

  ArenaAllocator(Arena* arena) : arena_(arena) {}  // NOLINT(runtime/explicit)
  template <typename U>
  ArenaAllocator(const ArenaAllocator<U>& other) : arena_(other.arena()) {}

  T* allocate(size_t n) { return arena_->AllocateArray<T>(n); }
  void deallocate(T*, size_t) {}

  Arena* arena() const { return arena_; }

  template <typename U>
  bool operator==(const ArenaAllocator<U>& other) const {
    return arena_ == other.arena();
  }

 private:
  Arena* arena_;
};

/// The per-round pair table of the sharded scans: FlatHashMap with its
/// arrays in the shard's leased arena. It is the same class template,
/// so its layout, and with it the finalize walk's visit order, is
/// FlatHashMap's by construction. Construct it from the Arena*.
template <typename V>
using ArenaHashMap = FlatHashMap<V, ArenaAllocator>;

}  // namespace copydetect

#endif  // COPYDETECT_COMMON_ARENA_H_
