#include "core/bound.h"

#include <algorithm>
#include <cmath>
#include <span>
#include <vector>

#include "common/executor.h"
#include "core/bayes.h"
#include "core/sharded_scan.h"

namespace copydetect {

namespace {

enum PairMode : uint8_t { kBoundMode = 0, kIndexMode = 1 };
enum PairStatus : uint8_t { kActive = 0, kDoneCopy = 1, kDoneNoCopy = 2 };

/// A pair's hot scan state, read on every visit; n0 == 0 until the
/// scan creates it (a created pair counts its first shared value at
/// once). The size of INDEX's pair state, so a HYBRID pair table
/// spans as many cache lines as INDEX's.
struct ScanState {
  double c_fwd = 0.0;
  double c_bwd = 0.0;
  uint32_t n0 = 0;  // observed shared values (before decision)
  uint8_t mode = kBoundMode;
  uint8_t status = kActive;
};
static_assert(sizeof(ScanState) == 24);

/// A pair's cold scan state, read only on BOUND-mode visits and at
/// finalize: the BOUND+ skip timers and the bookkeeping fields.
struct ColdScanState {
  uint32_t min_check_at_n0 = 0;  // recompute Cmin when n0 >= this
  uint32_t max_check_at_n1 = 0;  // recompute Cmax when n(S1) >= this
  uint32_t max_check_at_n2 = 0;  // ... or n(S2) >= this
  uint32_t decision_rank = 0;
  uint32_t n_after = 0;  // shared values seen after a decision; counted
                         // only when a ScanBookkeeping was asked for
};

uint32_t CeilToU32(double v) {
  if (v <= 0.0) return 0;
  double c = std::ceil(v);
  if (c >= 4.0e9) return 0xffffffffu;
  return static_cast<uint32_t>(c);
}

/// One shard of the bounded scan over a prebuilt index. Pairs are
/// partitioned by row ownership (OwnsRow on the pair's smaller
/// source), and a shard enumerates only its own rows; `shard` of
/// `num_shards` is the worker's slot (RunShardedScan). Pair states
/// never interact, and the per-source observed-value counts n_src
/// every shard recomputes identically from the shared entry stream,
/// so each owned pair evolves exactly as in the sequential scan — the
/// sharded result is bit-identical at any shard count.
/// entries_scanned is charged to shard 0 only, so merged shard
/// counters match the unsharded run.
void ScanShard(const InvertedIndex& index, const PairPlan& plan,
               const DetectionInput& in, const DetectionParams& params,
               const ScanConfig& config, size_t shard, size_t num_shards,
               Counters* counters, CopyResult* out, ScanBookkeeping* book) {
  const Dataset& data = *in.data;
  const std::vector<double>& accs = *in.accuracies;

  const double penalty = params.different_penalty();
  const double theta_cp = params.theta_cp();
  const double theta_ind = params.theta_ind();
  const PosteriorPrior prior(params);

  // The pair tables are indexed by plan id (PairPlan); l comes from
  // the plan.
  std::vector<ScanState> pairs(plan.num_pairs());
  std::vector<ColdScanState> cold(plan.num_pairs());
  std::vector<uint32_t> n_src(data.num_sources(), 0);

  for (size_t rank = 0; rank < index.num_entries(); ++rank) {
    if (shard == 0) ++counters->entries_scanned;
    const IndexEntry& e = index.entry(rank);
    std::span<const SourceId> providers = index.providers(rank);
    std::span<const uint32_t> ids = plan.slot_pairs(e.slot);
    const bool tail = config.respect_tail && index.in_tail(rank);
    // Score of the next unscanned entry bounds every future
    // contribution (Prop. 3.4); zero once the index is exhausted.
    const double next_m = rank + 1 < index.num_entries()
                              ? index.entry(rank + 1).score
                              : 0.0;

    // Step II.1: per-source observed-value counts.
    for (SourceId s : providers) ++n_src[s];

    size_t next = 0;  // position in ids of pair (i, i + 1)
    for (size_t i = 0; i + 1 < providers.size(); ++i) {
      // Providers ascend: lo is the smaller source of the whole row.
      const SourceId lo = providers[i];
      if (!OwnsRow(lo, shard, num_shards)) {
        next += providers.size() - 1 - i;
        continue;
      }
      const RowContributionScorer row(e.probability, accs[lo], params);
      for (size_t j = i + 1; j < providers.size(); ++j, ++next) {
        const SourceId hi = providers[j];
        const uint32_t id = ids[next];
        ScanState* st = &pairs[id];
        if (st->n0 == 0) {
          if (tail) continue;
          st->mode = (config.hybrid_threshold > 0 &&
                      plan.shared_items(id) <= config.hybrid_threshold)
                         ? kIndexMode
                         : kBoundMode;
          ++counters->pairs_tracked;
        }
        if (st->status != kActive) {
          // Decision already made; only the INCREMENTAL preparation
          // step (a bookkeeping scan) reads the count of later values,
          // |E̅1|.
          if (book != nullptr) ++cold[id].n_after;
          continue;
        }

        // Accumulate the exact contribution of this shared value.
        const RowContributionScorer::Scores c = row.Score(accs[hi]);
        st->c_fwd += c.fwd;
        st->c_bwd += c.bwd;
        counters->score_evals += 2;
        ++counters->values_examined;
        ++st->n0;

        if (st->mode == kIndexMode) continue;

        ColdScanState* cs = &cold[id];
        const double l_d = static_cast<double>(plan.shared_items(id));
        const double n0_d = static_cast<double>(st->n0);

        // ---- Cmin (Eq. 9): conclude copying early. ----
        if (!config.lazy_bounds || st->n0 >= cs->min_check_at_n0) {
          double cmin_f = st->c_fwd + (l_d - n0_d) * penalty;
          double cmin_b = st->c_bwd + (l_d - n0_d) * penalty;
          counters->bound_evals += 2;
          double cmin = std::max(cmin_f, cmin_b);
          if (cmin >= theta_cp) {
            st->status = kDoneCopy;
            cs->decision_rank = static_cast<uint32_t>(rank);
            ++counters->early_copy;
            Posteriors post = DirectionPosteriors(cmin_f, cmin_b, prior);
            out->Set(lo, hi, PairPosterior{post.indep, post.fwd, post.bwd});
            continue;
          }
          if (config.lazy_bounds) {
            // The next shared value raises Cmin by at most
            // next_m - ln(1-s); skip until it could reach theta_cp.
            uint32_t t_min =
                CeilToU32((theta_cp - cmin) / (next_m - penalty));
            cs->min_check_at_n0 = st->n0 + std::max<uint32_t>(1, t_min);
          }
        }

        // ---- Cmax (Eq. 10): conclude no-copying early. ----
        if (!config.lazy_bounds || n_src[lo] >= cs->max_check_at_n1 ||
            n_src[hi] >= cs->max_check_at_n2) {
          // h: estimated scanned items shared by the pair.
          double cov_lo = static_cast<double>(data.coverage(lo));
          double cov_hi = static_cast<double>(data.coverage(hi));
          double h = std::max(
              static_cast<double>(n_src[lo]) * l_d / cov_lo,
              static_cast<double>(n_src[hi]) * l_d / cov_hi);
          h = std::clamp(h, n0_d, l_d);
          double cmax_f = st->c_fwd + (h - n0_d) * penalty +
                          (l_d - h) * next_m;
          double cmax_b = st->c_bwd + (h - n0_d) * penalty +
                          (l_d - h) * next_m;
          counters->bound_evals += 2;
          if (cmax_f < theta_ind && cmax_b < theta_ind) {
            st->status = kDoneNoCopy;
            cs->decision_rank = static_cast<uint32_t>(rank);
            ++counters->early_nocopy;
            Posteriors post = DirectionPosteriors(cmax_f, cmax_b, prior);
            out->Set(lo, hi, PairPosterior{post.indep, post.fwd, post.bwd});
            continue;
          }
          if (config.lazy_bounds) {
            // Each further *different* value lowers Cmax by
            // next_m - ln(1-s); translate the required count into
            // per-source observed-value thresholds (§IV-B).
            double cmax = std::max(cmax_f, cmax_b);
            double t0 = std::ceil((cmax - theta_ind) / (next_m - penalty));
            double need = t0 + (h - n0_d);
            cs->max_check_at_n1 =
                std::max(n_src[lo] + 1, CeilToU32(need * cov_lo / l_d));
            cs->max_check_at_n2 =
                std::max(n_src[hi] + 1, CeilToU32(need * cov_hi / l_d));
          }
        }
      }
    }
  }

  // Step IV: finalize still-active pairs exactly (n0 == n, so Cmin is
  // the true score).
  const size_t end_rank = index.num_entries();
  for (uint32_t id = 0; id < pairs.size(); ++id) {
    const ScanState& st = pairs[id];
    if (st.n0 == 0) continue;
    const uint64_t key = plan.key(id);
    const uint32_t l = plan.shared_items(id);
    if (st.status != kActive) {
      if (book != nullptr) {
        PairBook pb;
        pb.c_fwd = st.c_fwd;
        pb.c_bwd = st.c_bwd;
        pb.n_before = st.n0;
        pb.n_after = cold[id].n_after;
        pb.l = l;
        pb.decision_rank = cold[id].decision_rank;
        pb.decision = st.status == kDoneCopy ? int8_t{1} : int8_t{-1};
        (*book)[key] = pb;
      }
      continue;
    }
    SourceId lo = PairFirst(key);
    SourceId hi = PairSecond(key);
    double diff = DifferentValuePenalty(penalty, l, st.n0);
    double c_fwd = st.c_fwd + diff;
    double c_bwd = st.c_bwd + diff;
    counters->finalize_evals += 2;
    Posteriors post = DirectionPosteriors(c_fwd, c_bwd, prior);
    out->Set(lo, hi, PairPosterior{post.indep, post.fwd, post.bwd});
    if (book != nullptr) {
      PairBook pb;
      pb.c_fwd = st.c_fwd;
      pb.c_bwd = st.c_bwd;
      pb.n_before = st.n0;
      pb.n_after = 0;
      pb.l = l;
      pb.decision_rank = static_cast<uint32_t>(end_rank);
      pb.decision = post.indep <= 0.5 ? int8_t{1} : int8_t{-1};
      (*book)[key] = pb;
    }
  }
}

}  // namespace

Status BoundedScan(const DetectionInput& in, const DetectionParams& params,
                   const ScanConfig& config, Counters* counters,
                   CopyResult* out, ScanBookkeeping* book,
                   ScanOutputs* extras) {
  CD_RETURN_IF_ERROR(in.Validate());
  const PairPlan& plan = in.overlaps->Plan(*in.data);
  out->Clear();
  if (book != nullptr) book->Clear();

  auto index_or =
      InvertedIndex::Build(in, params, config.ordering, config.seed);
  if (!index_or.ok()) return index_or.status();
  std::unique_ptr<InvertedIndex> index_holder =
      std::make_unique<InvertedIndex>(std::move(index_or).value());
  const InvertedIndex& index = *index_holder;
  if (extras != nullptr) {
    extras->num_entries = index.num_entries();
  }

  // Parallel sharded scan over the shared executor. The bookkeeping
  // path (INCREMENTAL's preparation round) stays sequential: it is
  // paid once per fusion run and merging shard books buys nothing.
  Executor* executor = book == nullptr ? params.executor : nullptr;
  RunShardedScan(executor, counters, out,
                 [&](size_t shard, size_t num_shards, Counters* c,
                     CopyResult* o) {
                   ScanShard(index, plan, in, params, config, shard,
                             num_shards, c, o, book);
                 });

  if (extras != nullptr && extras->keep_index) {
    extras->index = std::move(index_holder);
  }
  return Status::OK();
}

Status BoundDetector::DetectRound(const DetectionInput& in, int round,
                                  CopyResult* out) {
  (void)round;
  ScanConfig config;
  config.lazy_bounds = lazy_;
  config.hybrid_threshold = 0;
  config.ordering = ordering_;
  config.seed = seed_;
  return BoundedScan(in, params_, config, &counters_, out,
                     /*book=*/nullptr, /*extras=*/nullptr);
}

}  // namespace copydetect
