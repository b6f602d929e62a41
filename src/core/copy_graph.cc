#include "core/copy_graph.h"

#include <algorithm>
#include <unordered_map>

#include "common/flat_hash.h"

namespace copydetect {

namespace {

/// Path-compressing union-find over sparse source ids.
class UnionFind {
 public:
  SourceId Find(SourceId x) {
    auto it = parent_.find(x);
    if (it == parent_.end()) {
      parent_[x] = x;
      return x;
    }
    if (it->second == x) return x;
    SourceId root = Find(it->second);
    parent_[x] = root;
    return root;
  }
  void Union(SourceId a, SourceId b) { parent_[Find(a)] = Find(b); }

 private:
  std::unordered_map<SourceId, SourceId> parent_;
};

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
  std::sort(pairs.begin(), pairs.end());

  // 1. Connected components.
  UnionFind uf;
  for (uint64_t key : pairs) {
    uf.Union(PairFirst(key), PairSecond(key));
  }
  std::unordered_map<SourceId, size_t> cluster_of_root;
  CopyGraph graph;
  for (uint64_t key : pairs) {
    SourceId root = uf.Find(PairFirst(key));
    if (!cluster_of_root.count(root)) {
      cluster_of_root[root] = graph.clusters.size();
      graph.clusters.emplace_back();
    }
  }
  // Collect members.
  for (uint64_t key : pairs) {
    CopyCluster& cluster =
        graph.clusters[cluster_of_root[uf.Find(PairFirst(key))]];
    cluster.members.push_back(PairFirst(key));
    cluster.members.push_back(PairSecond(key));
  }
  for (CopyCluster& cluster : graph.clusters) {
    std::sort(cluster.members.begin(), cluster.members.end());
    cluster.members.erase(
        std::unique(cluster.members.begin(), cluster.members.end()),
        cluster.members.end());
  }

  // 2. Elect originals: incoming "is copied" probability mass, summed
  // over each member's tracked in-cluster partners in ascending id
  // order. An untracked partner would add +0.0, which leaves every sum
  // unchanged, so one pass over the tracked pairs finds all the terms
  // without probing each of a cluster's m² member pairs.
  constexpr size_t kNoCluster = ~size_t{0};
  SourceId max_member = 0;
  for (const CopyCluster& cluster : graph.clusters) {
    max_member = std::max(max_member, cluster.members.back());
  }
  std::vector<size_t> cluster_of(size_t{max_member} + 1, kNoCluster);
  for (size_t c = 0; c < graph.clusters.size(); ++c) {
    for (SourceId s : graph.clusters[c].members) cluster_of[s] = c;
  }
  struct Incoming {
    SourceId partner;
    double pr_copies;  // Pr(partner copies the list's owner)
  };
  std::vector<std::vector<Incoming>> incoming(cluster_of.size());
  result.ForEach([&](SourceId a, SourceId b, const PairPosterior& p) {
    // PrCopies never reaches a key with a >= b, so neither does this.
    if (a >= b || b > max_member || cluster_of[a] == kNoCluster ||
        cluster_of[a] != cluster_of[b]) {
      return;
    }
    incoming[a].push_back(Incoming{b, p.p_second_copies});
    incoming[b].push_back(Incoming{a, p.p_first_copies});
  });
  for (CopyCluster& cluster : graph.clusters) {
    double best_mass = -1.0;
    for (SourceId candidate : cluster.members) {
      std::vector<Incoming>& in = incoming[candidate];
      std::sort(in.begin(), in.end(),
                [](const Incoming& x, const Incoming& y) {
                  return x.partner < y.partner;
                });
      double mass = 0.0;
      for (const Incoming& e : in) mass += e.pr_copies;
      if (mass > best_mass) {
        best_mass = mass;
        cluster.original = candidate;
      }
    }
  }

  // 3. Classify edges.
  for (uint64_t key : pairs) {
    CopyCluster& cluster =
        graph.clusters[cluster_of_root[uf.Find(PairFirst(key))]];
    SourceId a = PairFirst(key);
    SourceId b = PairSecond(key);
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
