#include "core/inverted_index.h"

#include <algorithm>
#include <cassert>

#include "common/random.h"
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

void InvertedIndex::Rescore(const DetectionInput& in,
                            const DetectionParams& params) {
  for (IndexEntry& e : entries_) {
    e.probability = (*in.value_probs)[e.slot];
    e.score = EntryScore(*data_, e.slot, e.probability, *in.accuracies,
                         params);
  }
}

}  // namespace copydetect
