#include "core/incremental.h"

#include <algorithm>
#include <cmath>

#include "common/timer.h"
#include "core/bayes.h"
#include "core/hybrid.h"
#include "core/pairwise.h"

namespace copydetect {

namespace {

// Entry-change categories relative to the frozen snapshot.
enum Category : uint8_t {
  kSmallInc = 0,  // includes "no change"
  kBigInc = 1,
  kSmallDec = 2,
  kBigDec = 3,
};

}  // namespace

Status IncrementalDetector::DetectRound(const DetectionInput& in,
                                        int round, CopyResult* out) {
  CD_RETURN_IF_ERROR(in.Validate());
  // The paper applies INCREMENTAL from round 3 on: results move too
  // much in the first two rounds for refinement to pay off.
  if (round <= 2 || !seeded_) {
    return FromScratchRound(in, round, out);
  }
  return IncrementalRound(in, round, out);
}

void IncrementalDetector::Reset() {
  CopyDetector::Reset();
  seeded_ = false;
  index_.reset();
  p_snap_.clear();
  score_snap_.clear();
  a_snap_.clear();
  states_.Clear();
  exact_.Clear();
  stats_.clear();
}

Status IncrementalDetector::FromScratchRound(const DetectionInput& in,
                                             int round, CopyResult* out) {
  Stopwatch watch;
  watch.Start();

  ScanConfig config;
  config.lazy_bounds = true;
  config.hybrid_threshold = params_.hybrid_threshold;
  config.ordering = EntryOrdering::kByContribution;

  ScanBookkeeping book;
  ScanOutputs extras;
  extras.keep_index = (round >= 2);
  CD_RETURN_IF_ERROR(
      BoundedScan(in, params_, config, &counters_, out, &book, &extras));

  if (round >= 2) {
    // Freeze the snapshot: index order, tail set, per-entry
    // probabilities/scores, per-source accuracies, per-pair state.
    index_ = std::move(extras.index);
    const size_t m = index_->num_entries();
    p_snap_.resize(m);
    score_snap_.resize(m);
    for (size_t rank = 0; rank < m; ++rank) {
      p_snap_[rank] = index_->entry(rank).probability;
      score_snap_[rank] = index_->entry(rank).score;
    }
    a_snap_ = *in.accuracies;

    states_.Clear();
    exact_.Clear();
    states_.Reserve(book.size());
    const double penalty = params_.different_penalty();
    book.ForEach([&](uint64_t key, PairBook& pb) {
      IncState st;
      // d = items where the pair truly provides different values.
      double d = static_cast<double>(pb.l) -
                 static_cast<double>(pb.n_before) -
                 static_cast<double>(pb.n_after);
      st.c_fwd = pb.c_fwd + d * penalty;
      st.c_bwd = pb.c_bwd + d * penalty;
      st.l = pb.l;
      st.decision_rank = pb.decision_rank;
      st.n_before = pb.n_before;
      st.n_after = pb.n_after;
      st.decision = pb.decision;
      st.last_post = out->Get(PairFirst(key), PairSecond(key));
      states_[key] = st;
    });
    seeded_ = true;
  }

  watch.Stop();
  RoundStats rs;
  rs.round = round;
  rs.seconds = watch.Seconds();
  rs.from_scratch = true;
  stats_.push_back(rs);
  return Status::OK();
}

Status IncrementalDetector::IncrementalRound(const DetectionInput& in,
                                             int round, CopyResult* out) {
  Stopwatch watch;
  watch.Start();
  out->Clear();

  const Dataset& data = *in.data;
  const std::vector<double>& probs = *in.value_probs;
  const std::vector<double>& accs = *in.accuracies;
  const double theta_cp = params_.theta_cp();
  const double theta_ind = params_.theta_ind();
  const PosteriorPrior prior(params_);
  const size_t m = index_->num_entries();

  RoundStats rs;
  rs.round = round;

  // ---- Incremental re-indexing: new per-entry scores at the frozen
  // accuracies (no re-sort, no overlap recount — the cheap part the
  // paper credits for the 97% indexing saving). ----
  std::vector<double> p_new(m);
  std::vector<double> score_new(m);
  std::vector<uint8_t> category(m);
  std::vector<uint32_t> big_ranks;
  double delta_rho_dec = 0.0;  // max small decrease magnitude
  double delta_rho_inc = 0.0;  // max small increase magnitude
  for (size_t rank = 0; rank < m; ++rank) {
    SlotId slot = index_->entry(rank).slot;
    p_new[rank] = probs[slot];
    score_new[rank] = MaxEntryContribution(
        data.providers(slot), a_snap_, p_new[rank], params_);
    double delta = score_new[rank] - score_snap_[rank];
    if (delta >= 0.0) {
      category[rank] = delta > params_.rho_value ? kBigInc : kSmallInc;
      if (category[rank] == kSmallInc) {
        delta_rho_inc = std::max(delta_rho_inc, delta);
      } else {
        big_ranks.push_back(static_cast<uint32_t>(rank));
      }
    } else {
      category[rank] = -delta > params_.rho_value ? kBigDec : kSmallDec;
      if (category[rank] == kSmallDec) {
        delta_rho_dec = std::max(delta_rho_dec, -delta);
      } else {
        big_ranks.push_back(static_cast<uint32_t>(rank));
      }
    }
  }
  // Upper bound on the new score of any entry at rank >= r: used to
  // bound post-decision (E̅1) contributions per pair without touching
  // their entries (Prop. 3.4 made round-aware).
  std::vector<double> suffix_max(m + 1, 0.0);
  for (size_t rank = m; rank > 0; --rank) {
    suffix_max[rank - 1] =
        std::max(suffix_max[rank], score_new[rank - 1]);
  }

  // ---- Big accuracy changes force pairs out of the incremental
  // system (§V-A). ----
  std::vector<uint8_t> source_moved(data.num_sources(), 0);
  bool any_moved = false;
  for (SourceId s = 0; s < data.num_sources(); ++s) {
    if (std::abs(accs[s] - a_snap_[s]) > params_.rho_accuracy) {
      source_moved[s] = 1;
      any_moved = true;
    }
  }

  // ---- Reset scratch; route pairs. ----
  states_.ForEach([&](uint64_t key, IncState& st) {
    st.big_fwd = 0.0;
    st.big_bwd = 0.0;
    if (exact_.Contains(key)) {
      st.phase = 4;
      return;
    }
    if (any_moved && (source_moved[PairFirst(key)] ||
                      source_moved[PairSecond(key)])) {
      exact_.Insert(key);
      st.phase = 4;
      return;
    }
    st.phase = 0;
  });

  // ---- Pass 1a: exact replacement on big-change entries only (they
  // are the only entries that can move a pair's score by more than the
  // ∆ρ bulk bound). ----
  for (uint32_t rank : big_ranks) {
    ++counters_.entries_scanned;
    std::span<const SourceId> providers = index_->providers(rank);
    for (size_t i = 0; i + 1 < providers.size(); ++i) {
      for (size_t j = i + 1; j < providers.size(); ++j) {
        SourceId lo = std::min(providers[i], providers[j]);
        SourceId hi = std::max(providers[i], providers[j]);
        IncState* st = states_.Find(PairKey(lo, hi));
        if (st == nullptr || st->phase == 4) continue;
        if (rank > st->decision_rank) continue;  // E̅1: bounded below
        double of = SharedContribution(p_snap_[rank], a_snap_[lo],
                                       a_snap_[hi], params_);
        double ob = SharedContribution(p_snap_[rank], a_snap_[hi],
                                       a_snap_[lo], params_);
        double nf = SharedContribution(p_new[rank], a_snap_[lo],
                                       a_snap_[hi], params_);
        double nb = SharedContribution(p_new[rank], a_snap_[hi],
                                       a_snap_[lo], params_);
        st->big_fwd += nf - of;
        st->big_bwd += nb - ob;
        counters_.score_evals += 4;
        ++counters_.values_examined;
      }
    }
  }

  // ---- Pass 1b: per-pair resolution from the coarse bounds — no
  // index scan at all. Small-change entries shift a pair by at most
  // ∆ρ per shared pre-decision value; post-decision values contribute
  // at most the suffix maximum of the new scores. ----
  size_t coarse_ambiguous = 0;
  states_.ForEach([&](uint64_t key, IncState& st) {
    (void)key;
    if (st.phase == 4) return;
    double bf = st.c_fwd + st.big_fwd;
    double bb = st.c_bwd + st.big_bwd;
    double small_down =
        delta_rho_dec * static_cast<double>(st.n_before);
    double small_up = delta_rho_inc * static_cast<double>(st.n_before);
    double e1_up =
        st.n_after == 0
            ? 0.0
            : static_cast<double>(st.n_after) *
                  suffix_max[std::min<size_t>(st.decision_rank + 1, m)];
    if (st.decision > 0) {
      // Copying stands when even the worst case stays above theta_cp.
      if (std::max(bf, bb) - small_down >= theta_cp) {
        st.phase = 1;
        ++rs.pass1;
        return;
      }
    } else {
      // No-copying stands when even the best case stays below
      // theta_ind in both directions.
      if (bf + small_up + e1_up < theta_ind &&
          bb + small_up + e1_up < theta_ind) {
        st.phase = 1;
        ++rs.pass1;
        return;
      }
    }
    st.phase = 5;
    st.small_dec = 0;
    st.small_inc = 0;
    st.e1_fine = 0.0;
    ++coarse_ambiguous;
  });

  // ---- Pass 1c: fine counting scan for coarse-ambiguous pairs —
  // exact per-pair small-change counts and post-decision score sums,
  // plain adds with no contribution evaluations. Skipped entirely when
  // the coarse bounds settled everything (the common converged-round
  // case). ----
  size_t ambiguous = 0;
  if (coarse_ambiguous > 0) {
    for (size_t rank = 0; rank < m; ++rank) {
      std::span<const SourceId> providers = index_->providers(rank);
      const uint8_t cat = category[rank];
      const bool is_big = (cat == kBigInc || cat == kBigDec);
      for (size_t i = 0; i + 1 < providers.size(); ++i) {
        for (size_t j = i + 1; j < providers.size(); ++j) {
          IncState* st = states_.Find(
              PairKey(providers[i], providers[j]));
          if (st == nullptr || st->phase != 5) continue;
          if (rank > st->decision_rank) {
            st->e1_fine += score_new[rank];
          } else if (!is_big) {
            if (cat == kSmallDec) {
              ++st->small_dec;
            } else {
              ++st->small_inc;
            }
          }
        }
      }
    }
    states_.ForEach([&](uint64_t key, IncState& st) {
      (void)key;
      if (st.phase != 5) return;
      double bf = st.c_fwd + st.big_fwd;
      double bb = st.c_bwd + st.big_bwd;
      double small_down =
          delta_rho_dec * static_cast<double>(st.small_dec);
      double small_up =
          delta_rho_inc * static_cast<double>(st.small_inc);
      if (st.decision > 0) {
        if (std::max(bf, bb) - small_down >= theta_cp) {
          st.phase = 1;
          ++rs.pass1;
          return;
        }
      } else {
        if (bf + small_up + st.e1_fine < theta_ind &&
            bb + small_up + st.e1_fine < theta_ind) {
          st.phase = 1;
          ++rs.pass1;
          return;
        }
      }
      st.phase = 2;
      ++ambiguous;
    });
  }

  // ---- Pass-2 resolution + pass 3 (full exact recompute / flips). ----
  states_.ForEach([&](uint64_t key, IncState& st) {
    SourceId lo = PairFirst(key);
    SourceId hi = PairSecond(key);
    if (st.phase == 4) {
      // Exact set: re-evaluate directly.
      PairScores scores =
          ComputePairScores(in, lo, hi, params_, &counters_);
      counters_.finalize_evals += 2;
      Posteriors post =
          DirectionPosteriors(scores.c_fwd, scores.c_bwd, prior);
      st.last_post = PairPosterior{post.indep, post.fwd, post.bwd};
      out->Set(lo, hi, st.last_post);
      st.decision = post.indep <= 0.5 ? int8_t{1} : int8_t{-1};
      ++rs.exact;
      return;
    }
    if (st.phase == 1) {
      // Decision stands; refresh the posterior only when an exact
      // (big-change) delta moved the scores.
      if (st.big_fwd != 0.0 || st.big_bwd != 0.0) {
        counters_.finalize_evals += 2;
        Posteriors post = DirectionPosteriors(st.c_fwd + st.big_fwd,
                                              st.c_bwd + st.big_bwd,
                                              prior);
        st.last_post = PairPosterior{post.indep, post.fwd, post.bwd};
      }
      out->Set(lo, hi, st.last_post);
      return;
    }
    // phase == 2 ("pass 2"): the estimates could not certify the
    // decision — compute the pair's exact current score with one
    // sorted item merge (cheaper than per-entry refinement for the
    // handful of pairs that reach this point, and strictly more
    // accurate than the paper's step-5 incremental replacement).
    PairScores scores = ComputePairScores(in, lo, hi, params_, &counters_);
    counters_.finalize_evals += 2;
    Posteriors post =
        DirectionPosteriors(scores.c_fwd, scores.c_bwd, prior);
    st.last_post = PairPosterior{post.indep, post.fwd, post.bwd};
    out->Set(lo, hi, st.last_post);
    int8_t new_decision = post.indep <= 0.5 ? int8_t{1} : int8_t{-1};
    if (new_decision == st.decision) {
      ++rs.pass2;  // decision stands after the exact check
      return;
    }
    // Pass 3: the decision flipped — leave the incremental system
    // (the stored snapshot no longer reflects the pair's regime).
    st.decision = new_decision;
    exact_.Insert(key);
    ++rs.pass3;
  });

  watch.Stop();
  rs.seconds = watch.Seconds();
  stats_.push_back(rs);
  return Status::OK();
}

}  // namespace copydetect
