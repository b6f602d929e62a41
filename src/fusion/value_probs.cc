#include "fusion/value_probs.h"

#include <algorithm>
#include <cmath>

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

  // The copy discount reads only pairs concluded as copying: a table
  // of those alone, and a per-source flag that skips the lookups for
  // sources with no copying relation at all (the overwhelming
  // majority).
  FlatHashMap<PairPosterior> copying;
  std::vector<uint8_t> in_copying(num_sources, 0);
  copies.ForEach([&](SourceId a, SourceId b, const PairPosterior& post) {
    if (!post.IsCopying()) return;
    copying[PairKey(a, b)] = post;
    in_copying[a] = 1;
    in_copying[b] = 1;
  });

  // Items are independent and write disjoint slot ranges, so the loop
  // parallelizes over the shared executor with bit-identical results.
  // Scratch is thread_local to survive across items without sharing
  // across workers.
  auto process_item = [&](ItemId d) {
    thread_local std::vector<double> votes;
    thread_local std::vector<SourceId> order;
    const SlotId begin = data.slot_begin(d);
    const SlotId end = data.slot_end(d);
    if (begin == end) return;
    votes.assign(end - begin, 0.0);
    size_t provided = end - begin;

    for (SlotId v = begin; v < end; ++v) {
      std::span<const SourceId> providers = data.providers(v);
      if (providers.size() == 1) {
        // Nothing to order and nothing to discount; the same sum as
        // the loop below, 0 + w·1.
        votes[v - begin] = 0.0 + weight[providers[0]] * 1.0;
        continue;
      }
      order.assign(providers.begin(), providers.end());
      std::sort(order.begin(), order.end(),
                [&vote_rank](SourceId a, SourceId b) {
                  return vote_rank[a] < vote_rank[b];
                });
      double vote = 0.0;
      for (size_t i = 0; i < order.size(); ++i) {
        SourceId s = order[i];
        // Copy discount against earlier (higher-accuracy) providers.
        double independence = 1.0;
        if (in_copying[s]) {
          for (size_t j = 0; j < i; ++j) {
            SourceId t = order[j];
            if (!in_copying[t]) continue;
            const PairPosterior* post = copying.Find(PairKey(s, t));
            if (post == nullptr) continue;
            // Pr(s copies from t), as CopyResult::PrCopies reads it.
            double pr_copies =
                s < t ? post->p_first_copies : post->p_second_copies;
            independence *= 1.0 - params.s * pr_copies;
          }
        }
        vote += weight[s] * independence;
      }
      votes[v - begin] = vote;
    }

    // Softmax over provided values + unprovided false candidates; each
    // exponential is taken once and kept for the normalization.
    double mx = 0.0;  // vote of an unprovided value is 0
    for (double v : votes) mx = std::max(mx, v);
    double z = 0.0;
    for (double& v : votes) {
      v = std::exp(v - mx);
      z += v;
    }
    double unprovided =
        std::max(0.0, params.n + 1.0 - static_cast<double>(provided));
    z += unprovided * std::exp(0.0 - mx);
    for (SlotId v = begin; v < end; ++v) {
      (*probs)[v] = votes[v - begin] / z;
    }
  };
  ParallelFor(params.executor, data.num_items(),
              [&process_item](size_t d) {
                process_item(static_cast<ItemId>(d));
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
