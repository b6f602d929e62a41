#include "core/inverted_index.h"

#include <algorithm>
#include <cassert>
#include <iterator>

#include "common/random.h"
#include "common/stringutil.h"
#include "core/bayes.h"

namespace copydetect {

namespace {

double EntryScore(const Dataset& data, SlotId slot, double probability,
                  const std::vector<double>& accuracies,
                  const DetectionParams& params) {
  // The provider-batched overload reads accuracies through the
  // provider list directly — no per-entry copy.
  return MaxEntryContribution(data.providers(slot), accuracies,
                              probability, params);
}

}  // namespace

std::string_view EntryOrderingName(EntryOrdering ordering) {
  switch (ordering) {
    case EntryOrdering::kByContribution:
      return "by-contribution";
    case EntryOrdering::kByProvider:
      return "by-provider";
    case EntryOrdering::kRandom:
      return "random";
  }
  return "?";
}

StatusOr<InvertedIndex> InvertedIndex::Build(const DetectionInput& in,
                                             const DetectionParams& params,
                                             EntryOrdering ordering,
                                             uint64_t seed) {
  CD_RETURN_IF_ERROR(in.Validate());
  CD_RETURN_IF_ERROR(params.Validate());

  InvertedIndex index;
  index.data_ = in.data;
  index.ordering_ = ordering;

  const Dataset& data = *in.data;
  index.entries_.reserve(data.num_slots() / 2);
  for (SlotId v = 0; v < data.num_slots(); ++v) {
    if (data.providers(v).size() < 2) continue;
    IndexEntry e;
    e.slot = v;
    e.probability = (*in.value_probs)[v];
    e.score = EntryScore(data, v, e.probability, *in.accuracies, params);
    index.entries_.push_back(e);
  }

  switch (ordering) {
    case EntryOrdering::kByContribution:
      std::sort(index.entries_.begin(), index.entries_.end(),
                [](const IndexEntry& a, const IndexEntry& b) {
                  if (a.score != b.score) return a.score > b.score;
                  return a.slot < b.slot;
                });
      break;
    case EntryOrdering::kByProvider:
      std::sort(index.entries_.begin(), index.entries_.end(),
                [&data](const IndexEntry& a, const IndexEntry& b) {
                  size_t pa = data.providers(a.slot).size();
                  size_t pb = data.providers(b.slot).size();
                  if (pa != pb) return pa < pb;
                  return a.slot < b.slot;
                });
      break;
    case EntryOrdering::kRandom: {
      Rng rng(seed);
      rng.Shuffle(&index.entries_);
      break;
    }
  }

  // Tail set E̅: maximal suffix whose cumulative score < theta_ind.
  // Only sound when entries are score-ordered (a pair confined to the
  // suffix then has C→ < theta_ind and cannot be copying).
  index.tail_begin_ = index.entries_.size();
  if (ordering == EntryOrdering::kByContribution) {
    double cum = 0.0;
    const double theta = params.theta_ind();
    size_t rank = index.entries_.size();
    while (rank > 0) {
      cum += index.entries_[rank - 1].score;
      if (cum >= theta) break;
      --rank;
    }
    index.tail_begin_ = rank;
  }

  return index;
}

StatusOr<InvertedIndex> InvertedIndex::Rebase(
    const InvertedIndex& prev, const std::vector<double>& prev_accuracies,
    const DetectionInput& in, const DetectionParams& params,
    const DeltaSummary& summary) {
  CD_RETURN_IF_ERROR(in.Validate());
  CD_RETURN_IF_ERROR(params.Validate());
  auto fallback = [&] {
    return Build(in, params, EntryOrdering::kByContribution);
  };
  // Carried scores are only valid when the ordering is by score and
  // the old sources' accuracies are bitwise unchanged (new sources may
  // append — their observations are all on touched items).
  if (prev.ordering_ != EntryOrdering::kByContribution) return fallback();
  const std::vector<double>& accs = *in.accuracies;
  if (accs.size() < prev_accuracies.size()) return fallback();
  for (size_t s = 0; s < prev_accuracies.size(); ++s) {
    if (accs[s] != prev_accuracies[s]) return fallback();
  }

  const Dataset& data = *in.data;
  const Dataset& old_data = *prev.data_;
  const std::vector<double>& probs = *in.value_probs;

  InvertedIndex index;
  index.data_ = &data;
  index.ordering_ = EntryOrdering::kByContribution;

  // Carried entries: untouched items' postings, slots remapped. The
  // remap restricted to surviving slots is strictly increasing, so
  // the carried sequence stays sorted under the (score desc, slot
  // asc) comparator.
  std::vector<IndexEntry> carried;
  carried.reserve(prev.entries_.size());
  for (const IndexEntry& e : prev.entries_) {
    if (summary.ItemTouched(old_data.slot_item(e.slot))) continue;
    SlotId nv = summary.old_to_new_slot[e.slot];
    if (nv == kInvalidSlot || probs[nv] != e.probability) {
      // The caller's promise (untouched slots carry identical
      // probabilities) does not hold — carried scores would be stale.
      return fallback();
    }
    IndexEntry ne = e;
    ne.slot = nv;
    carried.push_back(ne);
  }

  // Touched entries: rescored from the new snapshot.
  std::vector<IndexEntry> touched;
  for (ItemId item : summary.touched_items) {
    for (SlotId v = data.slot_begin(item); v < data.slot_end(item);
         ++v) {
      if (data.providers(v).size() < 2) continue;
      IndexEntry e;
      e.slot = v;
      e.probability = probs[v];
      e.score = EntryScore(data, v, e.probability, accs, params);
      touched.push_back(e);
    }
  }
  auto by_score = [](const IndexEntry& a, const IndexEntry& b) {
    if (a.score != b.score) return a.score > b.score;
    return a.slot < b.slot;
  };
  std::sort(touched.begin(), touched.end(), by_score);

  // (score, slot) is a strict total order (slots unique), so merging
  // the two sorted runs is exactly the sequence Build's full sort
  // produces.
  index.entries_.reserve(carried.size() + touched.size());
  std::merge(carried.begin(), carried.end(), touched.begin(),
             touched.end(), std::back_inserter(index.entries_),
             by_score);

  // Tail set: same suffix computation as Build.
  index.tail_begin_ = index.entries_.size();
  double cum = 0.0;
  const double theta = params.theta_ind();
  size_t rank = index.entries_.size();
  while (rank > 0) {
    cum += index.entries_[rank - 1].score;
    if (cum >= theta) break;
    --rank;
  }
  index.tail_begin_ = rank;

  return index;
}

StatusOr<InvertedIndex> InvertedIndex::FromParts(
    const Dataset& data, std::vector<IndexEntry> entries,
    size_t tail_begin, EntryOrdering ordering) {
  if (tail_begin > entries.size()) {
    return Status::InvalidArgument(StrFormat(
        "InvertedIndex::FromParts: tail_begin %zu past the %zu entries",
        tail_begin, entries.size()));
  }
  std::vector<uint8_t> seen(data.num_slots(), 0);
  for (const IndexEntry& e : entries) {
    if (e.slot >= data.num_slots()) {
      return Status::InvalidArgument(
          StrFormat("InvertedIndex::FromParts: entry slot %u out of "
                    "range (num_slots %zu)",
                    e.slot, data.num_slots()));
    }
    if (seen[e.slot] != 0) {
      return Status::InvalidArgument(StrFormat(
          "InvertedIndex::FromParts: duplicate entry for slot %u",
          e.slot));
    }
    seen[e.slot] = 1;
    if (data.providers(e.slot).size() < 2) {
      return Status::InvalidArgument(
          StrFormat("InvertedIndex::FromParts: slot %u has fewer than "
                    "2 providers",
                    e.slot));
    }
  }
  InvertedIndex index;
  index.data_ = &data;
  index.entries_ = std::move(entries);
  index.tail_begin_ = tail_begin;
  index.ordering_ = ordering;
  return index;
}

void InvertedIndex::Rescore(const DetectionInput& in,
                            const DetectionParams& params) {
  for (IndexEntry& e : entries_) {
    e.probability = (*in.value_probs)[e.slot];
    e.score = EntryScore(*data_, e.slot, e.probability, *in.accuracies,
                         params);
  }
}

}  // namespace copydetect
