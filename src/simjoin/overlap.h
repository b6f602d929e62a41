#ifndef COPYDETECT_SIMJOIN_OVERLAP_H_
#define COPYDETECT_SIMJOIN_OVERLAP_H_

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "common/flat_hash.h"
#include "model/array_store.h"
#include "model/types.h"

namespace copydetect {

class Dataset;

namespace snapshot_internal {
struct OverlapSerde;
}  // namespace snapshot_internal

/// All-pairs shared-item counts l(S1, S2) — the quantity the INDEX
/// family needs at index-build time (§III: "the number of shared items
/// ... counted at index building time"). Chooses a dense triangular
/// array when the source count is small enough, a hash map otherwise.
class OverlapCounts {
 public:
  /// Number of items both sources provide (any value). 0 when a == b is
  /// never asked for but returns 0 defensively.
  uint32_t Get(SourceId a, SourceId b) const;

  /// Number of pairs with a positive count.
  size_t NumPositivePairs() const;

  /// Visits every pair with a positive count: fn(pair_key, count).
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    if (dense_mode_) {
      for (SourceId a = 0; a + 1 < num_sources_; ++a) {
        for (SourceId b = a + 1; b < num_sources_; ++b) {
          uint32_t c = dense_[DenseIndex(a, b)];
          if (c > 0) fn(PairKey(a, b), c);
        }
      }
    } else {
      sparse_.ForEach([&fn](uint64_t key, const uint32_t& c) {
        if (c > 0) fn(key, c);
      });
    }
  }

 private:
  friend OverlapCounts ComputeOverlaps(const Dataset& data,
                                       size_t dense_threshold);
  friend bool UpdateOverlaps(OverlapCounts* counts,
                             const Dataset& old_data,
                             const Dataset& new_data,
                             std::span<const ItemId> touched_items);
  // SnapshotIO persists/restores mode + arrays verbatim, sparse table
  // layout included; see snapshot/snapshot_io.cc.
  friend struct snapshot_internal::OverlapSerde;

  size_t DenseIndex(SourceId a, SourceId b) const {
    // Upper triangle, a < b.
    size_t n = num_sources_;
    size_t ai = a;
    size_t bi = b;
    return ai * (2 * n - ai - 1) / 2 + (bi - ai - 1);
  }

  bool dense_mode_ = false;
  SourceId num_sources_ = 0;
  // ArrayStore so a mapped snapshot can serve the dense triangle
  // zero-copy (sparse tables stay owned — FlatHashMap's layout is
  // pointer-based); UpdateOverlaps copies-on-write through
  // MutableOwned when patching a view-backed triangle.
  ArrayStore<uint32_t> dense_;
  FlatHashMap<uint32_t> sparse_;
};

/// Counts shared items for every pair of sources in one pass over the
/// per-item provider lists. O(sum over items of providers^2) time.
/// `dense_threshold`: use the dense triangular array when
/// num_sources <= threshold (default keeps memory under ~64 MB).
OverlapCounts ComputeOverlaps(const Dataset& data,
                              size_t dense_threshold = 5000);

/// Delta-maintains `counts` (valid for `old_data`) into the counts of
/// `new_data`: for every touched item the old provider-pair
/// contributions are subtracted and the new ones added, so the cost is
/// O(sum over touched items of providers^2) instead of a full
/// recount. `touched_items` must be exactly the items whose provider
/// sets may differ (DeltaSummary::touched_items); counts are integers,
/// so the result equals ComputeOverlaps(new_data) exactly.
///
/// Returns false — leaving `counts` unusable — when the incremental
/// path does not apply because the source universe changed (the dense
/// triangular layout is keyed on the source count); the caller should
/// recompute from scratch then.
bool UpdateOverlaps(OverlapCounts* counts, const Dataset& old_data,
                    const Dataset& new_data,
                    std::span<const ItemId> touched_items);

/// Dense ids for the source pairs that share a value, laid out for the
/// INDEX-family scans (core/index_algo.cc, core/bound.cc). A scan
/// walks an index entry's provider pairs in (i, j > i) order over the
/// slot's ascending provider list; slot_pairs() holds those pairs' ids
/// in exactly that order, so a scan indexes a per-round vector of pair
/// states by id instead of hashing each pair's PairKey, and skipping a
/// row i of a k-provider slot skips k-1-i ids. Ids are [0, num_pairs()),
/// numbered by first appearance over ascending slots. The plan depends
/// only on which values the sources share and on their overlap counts,
/// so it is built once per data set (OverlapCache::Plan) and never
/// saved.
class PairPlan {
 public:
  /// Builds the plan of `data`; `counts` must be its overlap counts.
  static PairPlan Build(const Dataset& data, const OverlapCounts& counts);

  /// Number of distinct pairs that share at least one value.
  size_t num_pairs() const { return keys_.size(); }

  /// The ids of slot `v`'s provider pairs, C(k, 2) of them for k
  /// providers p (ascending): (p0,p1), (p0,p2), ..., (p1,p2), ...
  std::span<const uint32_t> slot_pairs(SlotId v) const {
    return {ids_.data() + offsets_[v], ids_.data() + offsets_[v + 1]};
  }

  /// The PairKey of pair `id`.
  uint64_t key(uint32_t id) const { return keys_[id]; }
  /// l(S1, S2) of pair `id`: the items both sources provide.
  uint32_t shared_items(uint32_t id) const { return shared_items_[id]; }

 private:
  std::vector<size_t> offsets_;  // per slot, num_slots + 1
  std::vector<uint32_t> ids_;    // sized exactly to Σ C(k, 2)
  std::vector<uint64_t> keys_;
  std::vector<uint32_t> shared_items_;
};

/// The overlap counts of one data set, held by whoever owns the run —
/// a Session for its whole life, IterativeFusion::Run for one run, a
/// SampledDetector for its sample — and handed to every detection
/// round through DetectionInput::overlaps. l(S1,S2) depends only on
/// which cells are filled, which never changes inside a fusion run, so
/// the first round that reads the counts pays for them and later
/// rounds reuse them (§III counts them as index-build work).
///
/// Keyed on Dataset::generation(), not the object's address: keying on
/// the pointer alone let a *different* data set allocated at a
/// recycled address silently inherit the previous one's counts.
class OverlapCache {
 public:
  /// Returns the counts for `data`: the held ones when the generation
  /// matches, else a fresh count, which replaces them.
  const OverlapCounts& Get(const Dataset& data);

  /// True when the cache holds the counts of `generation`.
  bool HasFor(uint64_t generation) const {
    return generation_ != 0 && generation_ == generation;
  }
  /// The held counts; meaningful only while HasFor() holds for some
  /// generation.
  const OverlapCounts& counts() const { return counts_; }

  /// The pair plan of `data` (PairPlan::Build over Get(data)): the held
  /// one when it was built for this generation, else a fresh one. Only
  /// the INDEX-family scans ask for it, so PAIRWISE and FAGININPUT runs
  /// never build one. Set, Advance and Clear drop it.
  const PairPlan& Plan(const Dataset& data);

  /// Adopts `counts` as those of `generation` (Session::Load).
  void Set(OverlapCounts counts, uint64_t generation);

  /// Steps the held counts of `old_data` across a delta to `new_data`
  /// (Session::Update): patches them in place per touched item when
  /// `allow_patch` (UpdateOverlaps), else — or when the patch does not
  /// apply — recounts them. Returns true when they were patched. When
  /// the cache holds nothing for `old_data` it stays empty and returns
  /// false; the next Get counts.
  bool Advance(const Dataset& old_data, const Dataset& new_data,
               std::span<const ItemId> touched_items, bool allow_patch);

  void Clear();

 private:
  uint64_t generation_ = 0;  // 0 = empty (generations start at 1)
  OverlapCounts counts_;
  std::optional<PairPlan> plan_;  // of generation_ whenever present
};

}  // namespace copydetect

#endif  // COPYDETECT_SIMJOIN_OVERLAP_H_
