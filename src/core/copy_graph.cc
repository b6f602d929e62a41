#include "core/copy_graph.h"

#include <algorithm>
#include <numeric>

namespace copydetect {

namespace {

constexpr uint32_t kNoCluster = ~uint32_t{0};

/// Path-halving union-find over the dense source ids [0, n).
class UnionFind {
 public:
  explicit UnionFind(size_t n) : parent_(n) {
    std::iota(parent_.begin(), parent_.end(), SourceId{0});
  }
  SourceId Find(SourceId x) {
    while (parent_[x] != x) {
      parent_[x] = parent_[parent_[x]];
      x = parent_[x];
    }
    return x;
  }
  void Union(SourceId a, SourceId b) { parent_[Find(a)] = Find(b); }

 private:
  std::vector<SourceId> parent_;
};

/// A tracked pair (a < b) whose two sources share a cluster, with the
/// "is copied" mass it adds to each side.
struct InClusterPair {
  SourceId a;
  SourceId b;
  double pr_b_copies_a;
  double pr_a_copies_b;
};

/// `order` stably re-sorted by `id_of(pairs[i])`, an id below `ids`:
/// one counting pass.
template <typename IdOf>
std::vector<uint32_t> CountingPass(const std::vector<InClusterPair>& pairs,
                                   const std::vector<uint32_t>& order,
                                   size_t ids, IdOf id_of) {
  std::vector<uint32_t> next(ids + 1, 0);
  for (uint32_t i : order) ++next[id_of(pairs[i]) + 1];
  std::partial_sum(next.begin(), next.end(), next.begin());
  std::vector<uint32_t> sorted(order.size());
  for (uint32_t i : order) sorted[next[id_of(pairs[i])]++] = i;
  return sorted;
}

/// The indices of `pairs` in ascending (a, b) order, i.e. pair-key
/// order: a stable pass by b, then a stable pass by a.
std::vector<uint32_t> KeyOrder(const std::vector<InClusterPair>& pairs,
                               size_t ids) {
  std::vector<uint32_t> order(pairs.size());
  std::iota(order.begin(), order.end(), uint32_t{0});
  order = CountingPass(pairs, order, ids,
                       [](const InClusterPair& p) { return p.b; });
  return CountingPass(pairs, order, ids,
                      [](const InClusterPair& p) { return p.a; });
}

/// Each clustered source's incoming "is copied" probability mass,
/// summed over its tracked in-cluster partners in ascending id order.
/// An untracked partner would add +0.0, which leaves every sum
/// unchanged, so the tracked pairs hold all the terms; adding both
/// directions of each pair in key order adds every member's terms in
/// ascending partner order (copy_graph.h).
std::vector<double> IncomingMass(const CopyResult& result,
                                 const std::vector<uint32_t>& cluster_of) {
  const size_t ids = cluster_of.size();
  std::vector<InClusterPair> in_cluster;
  result.ForEach([&](SourceId a, SourceId b, const PairPosterior& p) {
    // PrCopies never reaches a key with a >= b, so neither does this.
    if (a >= b || b >= ids || cluster_of[a] == kNoCluster ||
        cluster_of[a] != cluster_of[b]) {
      return;
    }
    in_cluster.push_back({a, b, p.p_second_copies, p.p_first_copies});
  });
  std::vector<double> mass(ids, 0.0);
  for (uint32_t i : KeyOrder(in_cluster, ids)) {
    const InClusterPair& p = in_cluster[i];
    mass[p.a] += p.pr_b_copies_a;
    mass[p.b] += p.pr_a_copies_b;
  }
  return mass;
}

}  // namespace

size_t CopyGraph::NumPairs() const {
  size_t n = 0;
  for (const CopyCluster& c : clusters) n += c.edges.size();
  return n;
}

size_t CopyGraph::NumSources() const {
  size_t n = 0;
  for (const CopyCluster& c : clusters) n += c.members.size();
  return n;
}

CopyGraph AnalyzeCopyGraph(const CopyResult& result) {
  std::vector<uint64_t> pairs = result.CopyingPairs();
  CopyGraph graph;
  if (pairs.empty()) return graph;
  std::sort(pairs.begin(), pairs.end());
  SourceId max_id = 0;
  for (uint64_t key : pairs) {
    max_id = std::max({max_id, PairFirst(key), PairSecond(key)});
  }
  const size_t ids = size_t{max_id} + 1;

  // 1. Connected components, numbered in the key order of the pair
  // that first reaches each root.
  UnionFind uf(ids);
  for (uint64_t key : pairs) uf.Union(PairFirst(key), PairSecond(key));
  std::vector<uint32_t> cluster_of_root(ids, kNoCluster);
  std::vector<uint32_t> cluster_of(ids, kNoCluster);
  for (uint64_t key : pairs) {
    uint32_t& cluster = cluster_of_root[uf.Find(PairFirst(key))];
    if (cluster == kNoCluster) {
      cluster = static_cast<uint32_t>(graph.clusters.size());
      graph.clusters.emplace_back();
    }
    cluster_of[PairFirst(key)] = cluster;
    cluster_of[PairSecond(key)] = cluster;
  }
  for (SourceId s = 0; s < ids; ++s) {
    if (cluster_of[s] != kNoCluster) {
      graph.clusters[cluster_of[s]].members.push_back(s);
    }
  }

  // 2. Elect originals.
  const std::vector<double> mass = IncomingMass(result, cluster_of);
  for (CopyCluster& cluster : graph.clusters) {
    double best_mass = -1.0;
    for (SourceId candidate : cluster.members) {
      if (mass[candidate] > best_mass) {
        best_mass = mass[candidate];
        cluster.original = candidate;
      }
    }
  }

  // 3. Classify edges.
  for (uint64_t key : pairs) {
    const SourceId a = PairFirst(key);
    const SourceId b = PairSecond(key);
    CopyCluster& cluster = graph.clusters[cluster_of[a]];
    ClassifiedEdge edge;
    edge.a = a;
    edge.b = b;
    edge.pr_a_copies_b = result.PrCopies(a, b);
    edge.pr_b_copies_a = result.PrCopies(b, a);
    if (a == cluster.original || b == cluster.original) {
      edge.kind = EdgeKind::kDirect;
      SourceId copier = a == cluster.original ? b : a;
      cluster.direct_edges.push_back(CopyEdge{
          copier, cluster.original,
          result.PrCopies(copier, cluster.original)});
    } else {
      // Both endpoints copy the original (directly detected or not)?
      auto has_direct = [&](SourceId s) {
        return result.IsCopying(s, cluster.original);
      };
      edge.kind = has_direct(a) && has_direct(b) ? EdgeKind::kCoCopy
                                                 : EdgeKind::kIndirect;
    }
    cluster.edges.push_back(edge);
  }

  // Deterministic output order: by smallest member.
  std::sort(graph.clusters.begin(), graph.clusters.end(),
            [](const CopyCluster& x, const CopyCluster& y) {
              return x.members.front() < y.members.front();
            });
  return graph;
}

}  // namespace copydetect
