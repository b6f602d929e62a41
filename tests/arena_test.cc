#include "common/arena.h"

#include <cstring>
#include <random>
#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "common/executor.h"
#include "common/flat_hash.h"

namespace copydetect {
namespace {

TEST(ArenaTest, AllocationsAreAlignedAndDisjoint) {
  Arena arena;
  std::vector<std::pair<char*, size_t>> blocks;
  for (size_t i = 1; i <= 64; ++i) {
    size_t bytes = i * 7;
    char* p = arena.AllocateArray<char>(bytes);
    ASSERT_NE(p, nullptr);
    std::memset(p, static_cast<int>(i), bytes);
    blocks.emplace_back(p, bytes);
  }
  double* d = arena.AllocateArray<double>(3);
  EXPECT_EQ(reinterpret_cast<uintptr_t>(d) % alignof(double), 0u);
  uint32_t* u = arena.AllocateArray<uint32_t>(5);
  EXPECT_EQ(reinterpret_cast<uintptr_t>(u) % alignof(uint32_t), 0u);
  // No allocation overwrote an earlier one.
  for (size_t i = 0; i < blocks.size(); ++i) {
    for (size_t k = 0; k < blocks[i].second; ++k) {
      ASSERT_EQ(blocks[i].first[k], static_cast<char>(i + 1));
    }
  }
}

TEST(ArenaTest, GrowsAcrossChunksAndConsolidatesOnReset) {
  Arena arena(1 << 10);
  // Overflow the initial chunk several times over.
  for (int i = 0; i < 64; ++i) arena.AllocateArray<char>(4096);
  EXPECT_GT(arena.num_chunks(), 1u);
  size_t used = arena.bytes_used();
  EXPECT_GE(used, size_t{64} * 4096);

  arena.Reset();
  EXPECT_EQ(arena.num_chunks(), 1u);
  EXPECT_EQ(arena.bytes_used(), 0u);
  EXPECT_GE(arena.bytes_reserved(), used);

  // The same working set now fits the consolidated chunk: steady state
  // never grows again.
  for (int round = 0; round < 3; ++round) {
    for (int i = 0; i < 64; ++i) arena.AllocateArray<char>(4096);
    EXPECT_EQ(arena.num_chunks(), 1u);
    arena.Reset();
  }
}

TEST(ArenaTest, ZeroByteAllocationYieldsDistinctPointers) {
  Arena arena;
  char* a = arena.AllocateArray<char>(0);
  char* b = arena.AllocateArray<char>(0);
  EXPECT_NE(a, nullptr);
  EXPECT_NE(a, b);
}

// The bit-identity seam of the arena layer: an arena-allocated
// FlatHashMap (ArenaHashMap) and a heap-allocated one fed the same
// insertion sequence must yield the same storage order. The sharded
// scans' finalize walk — and therefore every downstream floating-point
// accumulation and snapshot byte — depends on this equivalence.
TEST(ArenaHashMapTest, MatchesFlatHashMapLayoutOnRandomWorkloads) {
  std::mt19937_64 rng(20260807);
  for (int trial = 0; trial < 20; ++trial) {
    Arena arena;
    ArenaHashMap<uint64_t> arena_map(&arena);
    FlatHashMap<uint64_t> flat_map;
    // The table's arrays come from the arena, not the heap.
    EXPECT_GE(arena.bytes_used(), 16 * 2 * sizeof(uint64_t));
    size_t n = 1 + static_cast<size_t>(rng() % 3000);
    uint64_t key_range = 1 + rng() % 4000;  // force repeats
    for (size_t i = 0; i < n; ++i) {
      uint64_t key = rng() % key_range;
      arena_map[key] += i;
      flat_map[key] += i;
      if (i % 7 == 0) {
        uint64_t probe_key = rng() % key_range;
        uint64_t* a = arena_map.Find(probe_key);
        uint64_t* f = flat_map.Find(probe_key);
        ASSERT_EQ(a == nullptr, f == nullptr);
        if (a != nullptr) {
          ASSERT_EQ(*a, *f);
        }
      }
    }
    ASSERT_EQ(arena_map.size(), flat_map.size());
    // Identical storage order, not merely identical contents.
    std::vector<std::pair<uint64_t, uint64_t>> arena_walk;
    std::vector<std::pair<uint64_t, uint64_t>> flat_walk;
    arena_map.ForEach(
        [&](uint64_t k, uint64_t& v) { arena_walk.emplace_back(k, v); });
    flat_map.ForEach(
        [&](uint64_t k, uint64_t& v) { flat_walk.emplace_back(k, v); });
    ASSERT_EQ(arena_walk, flat_walk);
  }
}

TEST(ArenaHashMapTest, FindOnEmptyAndAbsentKeys) {
  Arena arena;
  ArenaHashMap<int> map(&arena);
  EXPECT_TRUE(map.empty());
  EXPECT_EQ(map.Find(42), nullptr);
  map[42] = 7;
  EXPECT_EQ(*map.Find(42), 7);
  EXPECT_EQ(map.Find(43), nullptr);
  EXPECT_EQ(map.size(), 1u);
}

TEST(ArenaLeaseTest, SlotReuseAcrossRounds) {
  Executor executor(2);
  Arena* first = nullptr;
  {
    ArenaLease lease = executor.AcquireArena(0);
    first = lease.get();
    ASSERT_NE(first, nullptr);
    lease->AllocateArray<char>(1 << 16);
    EXPECT_GE(lease->bytes_used(), size_t{1} << 16);
  }
  // The same slot hands back the same (reset, still-warm) arena.
  ArenaLease again = executor.AcquireArena(0);
  EXPECT_EQ(again.get(), first);
  EXPECT_EQ(again->bytes_used(), 0u);
  EXPECT_GE(again->bytes_reserved(), size_t{1} << 16);
}

TEST(ArenaLeaseTest, ContendedSlotFallsBackToPrivateArena) {
  Executor executor(2);
  ArenaLease held = executor.AcquireArena(1);
  ArenaLease fallback = executor.AcquireArena(1);
  EXPECT_NE(fallback.get(), held.get());
  // The fallback is fully functional.
  uint32_t* p = fallback->AllocateArray<uint32_t>(8);
  p[7] = 1234;
  EXPECT_EQ(p[7], 1234u);
}

TEST(ArenaLeaseTest, NullExecutorGetsOwnedArena) {
  ArenaLease lease = AcquireArena(nullptr, 3);
  ASSERT_NE(lease.get(), nullptr);
  char* p = lease->AllocateArray<char>(64);
  std::memset(p, 0, 64);
}

// Exercised under tsan in CI: concurrent ParallelFor bodies lease
// distinct arenas (per-slot or fallback) and bump-allocate privately,
// so the scan path introduces no shared mutable allocator state.
TEST(ArenaLeaseTest, ConcurrentLeasesAreExclusive) {
  Executor executor(4);
  for (int round = 0; round < 50; ++round) {
    std::vector<Arena*> leased(8, nullptr);
    executor.ParallelFor(8, [&](size_t i) {
      ArenaLease lease = executor.AcquireArena(i);
      uint64_t* block = lease->AllocateArray<uint64_t>(512);
      for (size_t k = 0; k < 512; ++k) block[k] = i * 1000 + k;
      for (size_t k = 0; k < 512; ++k) {
        ASSERT_EQ(block[k], i * 1000 + k);
      }
      leased[i] = lease.get();
    });
    for (Arena* a : leased) ASSERT_NE(a, nullptr);
  }
}

// Two executors' ParallelFors overlapping from two host threads — the
// guarantee ParallelFor documents — must keep every lease exclusive.
TEST(ArenaLeaseTest, OverlappingParallelForsFromTwoThreads) {
  Executor executor(3);
  std::atomic<int> failures{0};
  Executor outer(2);
  outer.ParallelFor(2, [&](size_t caller) {
    for (int round = 0; round < 25; ++round) {
      ArenaLease lease = executor.AcquireArena(caller);
      uint64_t stamp = caller * 77 + static_cast<uint64_t>(round);
      uint64_t* block = lease->AllocateArray<uint64_t>(256);
      for (size_t k = 0; k < 256; ++k) block[k] = stamp;
      for (size_t k = 0; k < 256; ++k) {
        if (block[k] != stamp) failures.fetch_add(1);
      }
    }
  });
  EXPECT_EQ(failures.load(), 0);
}

}  // namespace
}  // namespace copydetect
