#include "core/index_algo.h"

#include <span>
#include <vector>

#include "common/executor.h"
#include "core/bayes.h"
#include "core/sharded_scan.h"

namespace copydetect {

namespace {

/// A pair's accumulators; n_shared == 0 until the scan creates it.
struct IndexPairState {
  double c_fwd = 0.0;
  double c_bwd = 0.0;
  uint32_t n_shared = 0;
};

/// Scans every entry in rank order, enumerating only the pairs whose
/// row this shard owns (OwnsRow on the pair's smaller source), then
/// finalizes them. `shard` of `num_shards` is the worker's slot
/// (RunShardedScan). With num_shards == 1 this is exactly the
/// sequential INDEX algorithm; with more shards each pair still
/// accumulates in rank order inside its single owner, which is what
/// makes sharded runs bit-identical to the serial one.
/// entries_scanned is charged to shard 0 only (every shard steps
/// through the same entries, each enumerating its own rows), so
/// summing the shards' counters reproduces the unsharded totals.
void ScanShard(const InvertedIndex& index, const PairPlan& plan,
               const std::vector<double>& accs,
               const DetectionParams& params, size_t shard,
               size_t num_shards, Counters* counters, CopyResult* out) {
  // The pair table is indexed by plan id (PairPlan).
  std::vector<IndexPairState> pairs(plan.num_pairs());

  // Steps 1-2: scan entries in order; head entries create state, tail
  // entries only update pairs already seen.
  for (size_t rank = 0; rank < index.num_entries(); ++rank) {
    if (shard == 0) ++counters->entries_scanned;
    const IndexEntry& e = index.entry(rank);
    std::span<const SourceId> providers = index.providers(rank);
    std::span<const uint32_t> ids = plan.slot_pairs(e.slot);
    const bool tail = index.in_tail(rank);
    size_t next = 0;  // position in ids of pair (i, i + 1)
    for (size_t i = 0; i + 1 < providers.size(); ++i) {
      // Providers ascend, so lo is the smaller source of every pair in
      // this row; fwd is "lo copies from hi".
      const SourceId lo = providers[i];
      if (!OwnsRow(lo, shard, num_shards)) {
        next += providers.size() - 1 - i;
        continue;
      }
      const RowContributionScorer row(e.probability, accs[lo], params);
      for (size_t j = i + 1; j < providers.size(); ++j, ++next) {
        const SourceId hi = providers[j];
        IndexPairState& state = pairs[ids[next]];
        if (state.n_shared == 0) {
          if (tail) continue;
          ++counters->pairs_tracked;
        }
        const RowContributionScorer::Scores c = row.Score(accs[hi]);
        state.c_fwd += c.fwd;
        state.c_bwd += c.bwd;
        counters->score_evals += 2;
        ++counters->values_examined;
        ++state.n_shared;
      }
    }
  }

  // Step 3: different-value penalty and posterior.
  const double penalty = params.different_penalty();
  const PosteriorPrior prior(params);
  for (uint32_t id = 0; id < pairs.size(); ++id) {
    const IndexPairState& state = pairs[id];
    if (state.n_shared == 0) continue;
    const uint64_t key = plan.key(id);
    double diff =
        DifferentValuePenalty(penalty, plan.shared_items(id), state.n_shared);
    double c_fwd = state.c_fwd + diff;
    double c_bwd = state.c_bwd + diff;
    counters->finalize_evals += 2;
    Posteriors post = DirectionPosteriors(c_fwd, c_bwd, prior);
    out->Set(PairFirst(key), PairSecond(key),
             PairPosterior{post.indep, post.fwd, post.bwd});
  }
}

}  // namespace

Status IndexDetector::DetectRound(const DetectionInput& in, int round,
                                  CopyResult* out) {
  (void)round;
  CD_RETURN_IF_ERROR(in.Validate());
  const PairPlan& plan = in.overlaps->Plan(*in.data);
  out->Clear();

  auto index_or = InvertedIndex::Build(in, params_, ordering_, seed_);
  if (!index_or.ok()) return index_or.status();
  const InvertedIndex& index = *index_or;
  const std::vector<double>& accs = *in.accuracies;

  RunShardedScan(params_.executor, &counters_, out,
                 [&](size_t shard, size_t num_shards, Counters* c,
                     CopyResult* o) {
                   ScanShard(index, plan, accs, params_, shard,
                             num_shards, c, o);
                 });
  return Status::OK();
}

}  // namespace copydetect
