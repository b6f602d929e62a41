#include "core/inverted_index.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cassert>
#include <utility>

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

/// Maps -score to a key whose unsigned order is the score's decreasing
/// order: flip every bit of a negative double, only the sign bit of a
/// non-negative one. -0.0 folds into +0.0 first, as the two compare
/// equal.
uint64_t DescendingScoreKey(double score) {
  double negated = -score;
  if (negated == 0.0) negated = 0.0;
  const uint64_t bits = std::bit_cast<uint64_t>(negated);
  return (bits >> 63) != 0 ? ~bits : bits | (uint64_t{1} << 63);
}

}  // namespace

namespace inverted_index_internal {

void SortByContribution(std::vector<IndexEntry>* entries) {
  constexpr int kDigits = 8;  // 8-bit digits of a 64-bit key
  const size_t m = entries->size();
  if (m < 2) return;
  // One pass counts every digit's histogram.
  std::array<std::array<uint32_t, 256>, kDigits> counts{};
  for (const IndexEntry& e : *entries) {
    const uint64_t key = DescendingScoreKey(e.score);
    for (int d = 0; d < kDigits; ++d) ++counts[d][(key >> (8 * d)) & 0xff];
  }
  std::vector<IndexEntry> buffer(m);
  std::vector<IndexEntry>* from = entries;
  std::vector<IndexEntry>* to = &buffer;
  for (int d = 0; d < kDigits; ++d) {
    const int shift = 8 * d;
    auto digit = [shift](const IndexEntry& e) {
      return (DescendingScoreKey(e.score) >> shift) & 0xff;
    };
    std::array<uint32_t, 256>& count = counts[d];
    // A digit every key shares leaves the order as it is.
    if (count[digit((*from)[0])] == m) continue;
    uint32_t begin = 0;
    for (uint32_t& c : count) {
      const uint32_t n = c;
      c = begin;
      begin += n;
    }
    for (const IndexEntry& e : *from) (*to)[count[digit(e)]++] = e;
    std::swap(from, to);
  }
  if (from != entries) entries->swap(buffer);
}

}  // namespace inverted_index_internal

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
      inverted_index_internal::SortByContribution(&index.entries_);
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
