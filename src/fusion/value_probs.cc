#include "fusion/value_probs.h"

#include <algorithm>
#include <cmath>
#include <span>
#include <utility>

#include "common/executor.h"

namespace copydetect {

std::vector<double> InitialValueProbs(const Dataset& data) {
  std::vector<double> probs(data.num_slots(), 0.0);
  for (ItemId d = 0; d < data.num_items(); ++d) {
    double total = static_cast<double>(data.item_providers(d).size());
    if (total == 0.0) continue;
    for (SlotId v = data.slot_begin(d); v < data.slot_end(d); ++v) {
      probs[v] =
          static_cast<double>(data.providers(v).size()) / total;
    }
  }
  return probs;
}

std::vector<double> InitialAccuracies(size_t num_sources, double a0) {
  return std::vector<double>(num_sources, a0);
}

void ComputeValueProbs(const Dataset& data,
                       const std::vector<double>& accuracies,
                       const CopyResult& copies,
                       const DetectionParams& params,
                       std::vector<double>* probs) {
  probs->assign(data.num_slots(), 0.0);
  const size_t num_sources = data.num_sources();

  // Per-source round constants: the vote weight, and the source's
  // place in the vote order (accuracy descending, then id), so that
  // ordering a value's providers compares integers only.
  std::vector<double> weight(num_sources);
  std::vector<SourceId> by_vote(num_sources);
  for (SourceId s = 0; s < num_sources; ++s) {
    double a = ClampAccuracy(accuracies[s]);
    weight[s] = std::log(params.n * a / (1.0 - a));
    by_vote[s] = s;
  }
  std::sort(by_vote.begin(), by_vote.end(),
            [&accuracies](SourceId a, SourceId b) {
              if (accuracies[a] != accuracies[b]) {
                return accuracies[a] > accuracies[b];
              }
              return a < b;
            });
  std::vector<uint32_t> vote_rank(num_sources);
  for (size_t r = 0; r < num_sources; ++r) {
    vote_rank[by_vote[r]] = static_cast<uint32_t>(r);
  }

  // Each source's concluded-copying partners with Pr(source copies
  // partner), as a CSR built in one walk over the CopyResult. The
  // discount reads no other pair.
  struct Partner {
    SourceId source;
    double pr_copies;
  };
  std::vector<std::pair<SourceId, Partner>> directed;  // two per pair
  directed.reserve(2 * copies.NumCopying());
  std::vector<uint32_t> partner_begin(num_sources + 1, 0);
  copies.ForEach([&](SourceId a, SourceId b, const PairPosterior& post) {
    if (!post.IsCopying()) return;
    directed.push_back({a, {b, post.p_first_copies}});
    directed.push_back({b, {a, post.p_second_copies}});
    ++partner_begin[a + 1];
    ++partner_begin[b + 1];
  });
  for (size_t s = 0; s < num_sources; ++s) {
    partner_begin[s + 1] += partner_begin[s];
  }
  std::vector<Partner> partners(directed.size());
  std::vector<uint32_t> fill(partner_begin.begin(), partner_begin.end() - 1);
  for (const auto& [s, partner] : directed) partners[fill[s]++] = partner;

  // The vote pass walks the sources in vote order, and each adds its
  // discounted weight to the values it provides, so every value's sum
  // runs over its providers in vote order, starting from 0. While a
  // source s is processed, pr_mark[t] holds Pr(s copies t) for each
  // copying partner t earlier in vote order (else -1); a value's
  // discount multiplies 1 - s·Pr over its marked providers in vote
  // order.
  std::vector<double>& votes = *probs;
  std::vector<double> pr_mark(num_sources, -1.0);
  std::vector<SourceId> marked;
  for (size_t r = 0; r < num_sources; ++r) {
    const SourceId s = by_vote[r];
    std::span<const Partner> mine(partners.data() + partner_begin[s],
                                  partners.data() + partner_begin[s + 1]);
    bool any_marked = false;
    for (const Partner& p : mine) {
      if (vote_rank[p.source] < r) {
        pr_mark[p.source] = p.pr_copies;
        any_marked = true;
      }
    }
    for (SlotId v : data.slots_of(s)) {
      double independence = 1.0;
      if (any_marked) {
        marked.clear();
        for (SourceId t : data.providers(v)) {
          if (pr_mark[t] >= 0.0) marked.push_back(t);
        }
        // Almost always none or one.
        if (marked.size() > 1) {
          std::sort(marked.begin(), marked.end(),
                    [&vote_rank](SourceId a, SourceId b) {
                      return vote_rank[a] < vote_rank[b];
                    });
        }
        for (SourceId t : marked) {
          independence *= 1.0 - params.s * pr_mark[t];
        }
      }
      votes[v] += weight[s] * independence;
    }
    for (const Partner& p : mine) pr_mark[p.source] = -1.0;
  }

  // Softmax per item over provided values + unprovided false
  // candidates, in place; each exponential is taken once and kept for
  // the normalization. Items write disjoint slot ranges, so the loop
  // parallelizes over the shared executor with bit-identical results.
  ParallelFor(params.executor, data.num_items(), [&](size_t item) {
    const ItemId d = static_cast<ItemId>(item);
    const SlotId begin = data.slot_begin(d);
    const SlotId end = data.slot_end(d);
    if (begin == end) return;
    const size_t provided = end - begin;
    double mx = 0.0;  // vote of an unprovided value is 0
    for (SlotId v = begin; v < end; ++v) mx = std::max(mx, votes[v]);
    double z = 0.0;
    for (SlotId v = begin; v < end; ++v) {
      votes[v] = ExpOfDifference(votes[v], mx);
      z += votes[v];
    }
    double unprovided =
        std::max(0.0, params.n + 1.0 - static_cast<double>(provided));
    z += unprovided * ExpOfDifference(0.0, mx);
    for (SlotId v = begin; v < end; ++v) votes[v] = votes[v] / z;
  });
}

void ComputeAccuracies(const Dataset& data,
                       const std::vector<double>& probs,
                       std::vector<double>* accuracies,
                       Executor* executor) {
  accuracies->assign(data.num_sources(), 0.5);
  // Sources are independent; each writes only its own entry.
  ParallelFor(executor, data.num_sources(), [&](size_t s) {
    std::span<const SlotId> slots =
        data.slots_of(static_cast<SourceId>(s));
    if (slots.empty()) return;
    double sum = 0.0;
    for (SlotId v : slots) sum += probs[v];
    (*accuracies)[s] =
        ClampAccuracy(sum / static_cast<double>(slots.size()));
  });
}

std::vector<SlotId> ChooseTruth(const Dataset& data,
                                const std::vector<double>& probs) {
  std::vector<SlotId> truth(data.num_items(), kInvalidSlot);
  for (ItemId d = 0; d < data.num_items(); ++d) {
    double best = -1.0;
    for (SlotId v = data.slot_begin(d); v < data.slot_end(d); ++v) {
      if (probs[v] > best) {
        best = probs[v];
        truth[d] = v;
      }
    }
  }
  return truth;
}

}  // namespace copydetect
