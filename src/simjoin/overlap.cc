#include "simjoin/overlap.h"

#include <algorithm>
#include <bit>
#include <utility>

#include "model/dataset.h"
#include "simjoin/intersect.h"

namespace copydetect {

uint32_t OverlapCounts::Get(SourceId a, SourceId b) const {
  if (a == b) return 0;
  if (a > b) std::swap(a, b);
  if (dense_mode_) return dense_[DenseIndex(a, b)];
  const uint32_t* c = sparse_.Find(PairKey(a, b));
  return c ? *c : 0;
}

size_t OverlapCounts::NumPositivePairs() const {
  // Delta maintenance can drive sparse entries to zero (FlatHashMap
  // has no erase), so both modes must count, not just the dense one.
  size_t n = 0;
  if (dense_mode_) {
    for (uint32_t c : dense_) {
      if (c > 0) ++n;
    }
  } else {
    sparse_.ForEach([&n](uint64_t, const uint32_t& c) {
      if (c > 0) ++n;
    });
  }
  return n;
}

PairPlan PairPlan::Build(const Dataset& data, const OverlapCounts& counts) {
  PairPlan plan;
  const size_t num_slots = data.num_slots();
  plan.offsets_.resize(num_slots + 1);
  size_t total = 0;
  for (SlotId v = 0; v < num_slots; ++v) {
    plan.offsets_[v] = total;
    const size_t k = data.providers(v).size();
    if (k >= 2) total += k * (k - 1) / 2;
  }
  plan.offsets_[num_slots] = total;
  plan.ids_.resize(total);

  // Ids by first appearance over ascending slots. `cell_of(a, b)` is
  // the pair's cell of a table that holds id + 1, 0 until numbered.
  auto number = [&](auto&& cell_of) {
    size_t next = 0;
    for (SlotId v = 0; v < num_slots; ++v) {
      std::span<const SourceId> providers = data.providers(v);
      for (size_t i = 0; i + 1 < providers.size(); ++i) {
        for (size_t j = i + 1; j < providers.size(); ++j) {
          uint32_t& cell = cell_of(providers[i], providers[j]);
          if (cell == 0) {
            plan.keys_.push_back(PairKey(providers[i], providers[j]));
            plan.shared_items_.push_back(
                counts.Get(providers[i], providers[j]));
            cell = static_cast<uint32_t>(plan.keys_.size());
          }
          plan.ids_[next++] = cell - 1;
        }
      }
    }
  };
  // A dense triangle over every source pair when it is no larger than
  // the id array it fills (few sources, many shared values: stock),
  // else a hash table over the pairs that occur (book).
  const size_t n = data.num_sources();
  const size_t all_pairs = n < 2 ? 0 : n * (n - 1) / 2;
  if (all_pairs <= total) {
    std::vector<uint32_t> triangle(all_pairs, 0);
    number([&](SourceId a, SourceId b) -> uint32_t& {
      const size_t ai = a;
      return triangle[ai * (2 * n - ai - 1) / 2 + (b - ai - 1)];
    });
  } else {
    FlatHashMap<uint32_t> id_of;
    id_of.Reserve(total);
    number([&](SourceId a, SourceId b) -> uint32_t& {
      return id_of[PairKey(a, b)];
    });
  }
  plan.keys_.shrink_to_fit();
  plan.shared_items_.shrink_to_fit();
  return plan;
}

const OverlapCounts& OverlapCache::Get(const Dataset& data) {
  if (!HasFor(data.generation())) {
    Set(ComputeOverlaps(data), data.generation());
  }
  return counts_;
}

const PairPlan& OverlapCache::Plan(const Dataset& data) {
  const OverlapCounts& counts = Get(data);
  if (!plan_.has_value()) plan_ = PairPlan::Build(data, counts);
  return *plan_;
}

void OverlapCache::Set(OverlapCounts counts, uint64_t generation) {
  counts_ = std::move(counts);
  generation_ = generation;
  plan_.reset();
}

bool OverlapCache::Advance(const Dataset& old_data,
                           const Dataset& new_data,
                           std::span<const ItemId> touched_items,
                           bool allow_patch) {
  if (!HasFor(old_data.generation())) {
    Clear();
    return false;
  }
  plan_.reset();
  const bool patched =
      allow_patch &&
      UpdateOverlaps(&counts_, old_data, new_data, touched_items);
  if (!patched) counts_ = ComputeOverlaps(new_data);
  generation_ = new_data.generation();
  return patched;
}

void OverlapCache::Clear() {
  generation_ = 0;
  counts_ = OverlapCounts();
  plan_.reset();
}

namespace {

/// Work estimate of the per-item counting path: one increment per
/// provider pair per item.
size_t PerItemPairCost(const Dataset& data) {
  size_t cost = 0;
  for (ItemId d = 0; d < data.num_items(); ++d) {
    size_t p = data.item_providers(d).size();
    cost += p * (p - 1) / 2;
  }
  return cost;
}

/// Which formulation ComputeOverlaps runs. All three produce the same
/// integer counts; only the memory traffic differs.
enum class OverlapPath { kPerItem, kBitmap, kPairwise };

/// Memory ceiling for the per-source item bitmaps (kBitmap).
constexpr size_t kBitmapByteBudget = size_t{64} << 20;

/// Picks the cheapest formulation. Unit costs are rough relative
/// cycle weights: a bitmap word AND+popcount streams at ~1, a dense
/// random increment is a read-modify-write (~2), a vector merge
/// element-advance ~1 (or ~3 scalar on the portable build).
OverlapPath ChooseOverlapPath(const Dataset& data, bool dense_mode) {
  const size_t n = data.num_sources();
  if (!dense_mode || n < 2) return OverlapPath::kPerItem;
  const size_t pairs = n * (n - 1) / 2;
  const size_t words = (data.num_items() + 63) / 64;
  const size_t peritem_cost = 2 * PerItemPairCost(data);
  size_t best = peritem_cost;
  OverlapPath path = OverlapPath::kPerItem;
  if (n * words * 8 <= kBitmapByteBudget) {
    size_t bitmap_cost = pairs * words + data.num_observations();
    if (bitmap_cost < best) {
      best = bitmap_cost;
      path = OverlapPath::kBitmap;
    }
  }
  size_t merge_steps = (n - 1) * data.num_observations();
  size_t pairwise_cost =
      intersect_internal::SimdAvailable() ? merge_steps : 3 * merge_steps;
  if (pairwise_cost < best) path = OverlapPath::kPairwise;
  return path;
}

}  // namespace

OverlapCounts ComputeOverlaps(const Dataset& data,
                              size_t dense_threshold) {
  OverlapCounts out;
  const size_t n = data.num_sources();
  out.num_sources_ = static_cast<SourceId>(n);
  out.dense_mode_ = n <= dense_threshold;
  std::vector<uint32_t>& dense = out.dense_.MutableOwned();
  if (out.dense_mode_) {
    dense.assign(n * (n - 1) / 2, 0);
  }

  // Three equivalent formulations (counts are integers, so the choice
  // can never change a result):
  //  * per item: every provider pair of every item gets +1 — cheap
  //    when overlaps are sparse, and the only option in sparse mode
  //    (it never touches a pair that does not overlap);
  //  * bitmap: one item-bitmap per source, l(a,b) = popcount(A & B)
  //    — unbeatable for small dense universes where the bitmaps fit
  //    in cache;
  //  * per pair: l(a,b) = |items_of(a) ∩ items_of(b)| via the sorted
  //    intersection kernel — for dense universes whose bitmaps would
  //    blow the byte budget.
  switch (ChooseOverlapPath(data, out.dense_mode_)) {
    case OverlapPath::kBitmap: {
      const size_t words = (data.num_items() + 63) / 64;
      std::vector<uint64_t> bits(n * words, 0);
      for (SourceId s = 0; s < n; ++s) {
        uint64_t* row = bits.data() + s * words;
        for (ItemId d : data.items_of(s)) {
          row[d >> 6] |= uint64_t{1} << (d & 63);
        }
      }
      for (SourceId a = 0; a + 1 < n; ++a) {
        const uint64_t* ra = bits.data() + a * words;
        for (SourceId b = a + 1; b < n; ++b) {
          const uint64_t* rb = bits.data() + b * words;
          uint32_t c = 0;
          for (size_t w = 0; w < words; ++w) {
            c += static_cast<uint32_t>(std::popcount(ra[w] & rb[w]));
          }
          if (c > 0) dense[out.DenseIndex(a, b)] = c;
        }
      }
      return out;
    }
    case OverlapPath::kPairwise: {
      for (SourceId a = 0; a + 1 < n; ++a) {
        std::span<const ItemId> items_a = data.items_of(a);
        if (items_a.empty()) continue;
        for (SourceId b = a + 1; b < n; ++b) {
          uint32_t c = IntersectSize(items_a, data.items_of(b));
          if (c > 0) dense[out.DenseIndex(a, b)] = c;
        }
      }
      return out;
    }
    case OverlapPath::kPerItem:
      break;
  }

  // Reusable scratch for the per-item provider list (sorted).
  std::vector<SourceId> providers;
  for (ItemId d = 0; d < data.num_items(); ++d) {
    std::span<const SourceId> span = data.item_providers(d);
    if (span.size() < 2) continue;
    providers.assign(span.begin(), span.end());
    std::sort(providers.begin(), providers.end());
    if (out.dense_mode_) {
      for (size_t i = 0; i + 1 < providers.size(); ++i) {
        for (size_t j = i + 1; j < providers.size(); ++j) {
          ++dense[out.DenseIndex(providers[i], providers[j])];
        }
      }
    } else {
      for (size_t i = 0; i + 1 < providers.size(); ++i) {
        for (size_t j = i + 1; j < providers.size(); ++j) {
          ++out.sparse_[PairKey(providers[i], providers[j])];
        }
      }
    }
  }
  return out;
}

namespace {

/// Scratch for one UpdateOverlaps call, reused across touched items.
struct UpdateScratch {
  std::vector<SourceId> old_sorted;
  std::vector<SourceId> new_sorted;
  std::vector<IntersectMatch> matches;
  std::vector<SourceId> departed;  // old \ new
  std::vector<SourceId> kept;      // old ∩ new
  std::vector<SourceId> arrived;   // new \ old
};

/// Splits one touched item's old/new provider sets into departed /
/// kept / arrived via the intersection kernel. The net count
/// adjustment only involves departed and arrived pairs:
///
///   old pairs  = D×D + D×K + K×K
///   new pairs  = A×A + A×K + K×K
///   net        = −D×D − D×K + A×A + A×K
///
/// so a value-only change (providers unchanged → D = A = ∅) costs one
/// intersection and zero adjustments, where the subtract-all/add-all
/// formulation redid every pair of the item. Counts are integers, so
/// the cancellation is exact.
void ClassifyProviders(std::span<const SourceId> old_span,
                       std::span<const SourceId> new_span,
                       UpdateScratch* s) {
  // item_providers is contiguous but only sorted within slots.
  s->old_sorted.assign(old_span.begin(), old_span.end());
  std::sort(s->old_sorted.begin(), s->old_sorted.end());
  s->new_sorted.assign(new_span.begin(), new_span.end());
  std::sort(s->new_sorted.begin(), s->new_sorted.end());

  s->matches.resize(
      std::min(s->old_sorted.size(), s->new_sorted.size()));
  size_t m = IntersectIndices(s->old_sorted, s->new_sorted,
                              s->matches.data());

  s->departed.clear();
  s->kept.clear();
  s->arrived.clear();
  size_t next = 0;
  for (size_t i = 0; i < s->old_sorted.size(); ++i) {
    if (next < m && s->matches[next].i == i) {
      s->kept.push_back(s->old_sorted[i]);
      ++next;
    } else {
      s->departed.push_back(s->old_sorted[i]);
    }
  }
  next = 0;
  for (size_t j = 0; j < s->new_sorted.size(); ++j) {
    if (next < m && s->matches[next].j == j) {
      ++next;
    } else {
      s->arrived.push_back(s->new_sorted[j]);
    }
  }
}

/// Applies delta to every within-`group` pair and every group×kept
/// pair.
template <typename Adjust>
void AdjustGroupPairs(const std::vector<SourceId>& group,
                      const std::vector<SourceId>& kept,
                      Adjust&& adjust) {
  for (size_t i = 0; i < group.size(); ++i) {
    for (size_t j = i + 1; j < group.size(); ++j) {
      adjust(group[i], group[j]);
    }
    for (SourceId k : kept) {
      adjust(group[i], k);
    }
  }
}

}  // namespace

bool UpdateOverlaps(OverlapCounts* counts, const Dataset& old_data,
                    const Dataset& new_data,
                    std::span<const ItemId> touched_items) {
  if (new_data.num_sources() != counts->num_sources_) {
    // The dense triangular layout (and the sparse key space's
    // interpretation) is per source universe; growing it is a
    // recount, not a patch.
    return false;
  }
  // Copy-on-write: a view-backed dense triangle (mapped snapshot)
  // materializes before the first patch.
  std::vector<uint32_t>* dense =
      counts->dense_mode_ ? &counts->dense_.MutableOwned() : nullptr;
  UpdateScratch scratch;
  for (ItemId item : touched_items) {
    std::span<const SourceId> old_span =
        item < old_data.num_items() ? old_data.item_providers(item)
                                    : std::span<const SourceId>();
    std::span<const SourceId> new_span =
        item < new_data.num_items() ? new_data.item_providers(item)
                                    : std::span<const SourceId>();
    ClassifyProviders(old_span, new_span, &scratch);
    if (scratch.departed.empty() && scratch.arrived.empty()) continue;
    if (counts->dense_mode_) {
      auto sub = [&](SourceId a, SourceId b) {
        if (a > b) std::swap(a, b);
        --(*dense)[counts->DenseIndex(a, b)];
      };
      auto add = [&](SourceId a, SourceId b) {
        if (a > b) std::swap(a, b);
        ++(*dense)[counts->DenseIndex(a, b)];
      };
      AdjustGroupPairs(scratch.departed, scratch.kept, sub);
      AdjustGroupPairs(scratch.arrived, scratch.kept, add);
    } else {
      AdjustGroupPairs(scratch.departed, scratch.kept,
                       [&](SourceId a, SourceId b) {
                         --counts->sparse_[PairKey(a, b)];
                       });
      AdjustGroupPairs(scratch.arrived, scratch.kept,
                       [&](SourceId a, SourceId b) {
                         ++counts->sparse_[PairKey(a, b)];
                       });
    }
  }
  return true;
}

}  // namespace copydetect
