#include "core/copy_graph.h"

#include <algorithm>
#include <string>
#include <unordered_map>
#include <vector>

#include <gtest/gtest.h>

#include "copydetect/session.h"
#include "core/pairwise.h"
#include "eval/experiment.h"
#include "test_util.h"

namespace copydetect {
namespace {

/// The AnalyzeCopyGraph that elected each original by probing all m²
/// member pairs, kept verbatim as the oracle for the tracked-partner
/// election that replaced it.
class ReferenceUnionFind {
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

CopyGraph ReferenceAnalyzeCopyGraph(const CopyResult& result) {
  std::vector<uint64_t> pairs = result.CopyingPairs();
  std::sort(pairs.begin(), pairs.end());

  // 1. Connected components.
  ReferenceUnionFind uf;
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

  // 2. Elect originals: incoming "is copied" probability mass.
  for (CopyCluster& cluster : graph.clusters) {
    double best_mass = -1.0;
    for (SourceId candidate : cluster.members) {
      double mass = 0.0;
      for (SourceId other : cluster.members) {
        if (other == candidate) continue;
        mass += result.PrCopies(other, candidate);
      }
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

/// Compares every field of two graphs, doubles bit for bit.
void ExpectSameGraph(const CopyGraph& got, const CopyGraph& want) {
  ASSERT_EQ(got.clusters.size(), want.clusters.size());
  for (size_t c = 0; c < want.clusters.size(); ++c) {
    SCOPED_TRACE("cluster " + std::to_string(c));
    const CopyCluster& g = got.clusters[c];
    const CopyCluster& w = want.clusters[c];
    EXPECT_EQ(g.members, w.members);
    EXPECT_EQ(g.original, w.original);
    ASSERT_EQ(g.direct_edges.size(), w.direct_edges.size());
    for (size_t i = 0; i < w.direct_edges.size(); ++i) {
      EXPECT_EQ(g.direct_edges[i].copier, w.direct_edges[i].copier);
      EXPECT_EQ(g.direct_edges[i].original, w.direct_edges[i].original);
      EXPECT_EQ(g.direct_edges[i].probability,
                w.direct_edges[i].probability);
    }
    ASSERT_EQ(g.edges.size(), w.edges.size());
    for (size_t i = 0; i < w.edges.size(); ++i) {
      EXPECT_EQ(g.edges[i].a, w.edges[i].a);
      EXPECT_EQ(g.edges[i].b, w.edges[i].b);
      EXPECT_EQ(g.edges[i].kind, w.edges[i].kind);
      EXPECT_EQ(g.edges[i].pr_a_copies_b, w.edges[i].pr_a_copies_b);
      EXPECT_EQ(g.edges[i].pr_b_copies_a, w.edges[i].pr_b_copies_a);
    }
  }
}

/// The copies of a full `detector` run on profile `name` at `scale`.
CopyResult FinalCopies(const std::string& name, double scale,
                       const std::string& detector) {
  auto world = MakeWorldByName(name, scale, 7);
  CD_CHECK_OK(world.status());
  SessionOptions options;
  options.detector = detector;
  options.n = world->suggested_n;
  auto session = Session::Create(options);
  CD_CHECK_OK(session.status());
  auto report = session->Run(world->data);
  CD_CHECK_OK(report.status());
  return report->fusion.copies;
}

PairPosterior Copying(double to_second, double to_first) {
  return PairPosterior{1.0 - to_second - to_first, to_second, to_first};
}

TEST(CopyGraph, EmptyResultEmptyGraph) {
  CopyResult result;
  CopyGraph graph = AnalyzeCopyGraph(result);
  EXPECT_TRUE(graph.clusters.empty());
  EXPECT_EQ(graph.NumPairs(), 0u);
}

TEST(CopyGraph, SinglePairElectsTheCopiedSide) {
  CopyResult result;
  // Pr(1 copies 2) = .8: source 2 is the original.
  result.Set(1, 2, Copying(/*first copies second=*/0.8,
                           /*second copies first=*/0.1));
  CopyGraph graph = AnalyzeCopyGraph(result);
  ASSERT_EQ(graph.clusters.size(), 1u);
  const CopyCluster& cluster = graph.clusters[0];
  EXPECT_EQ(cluster.original, 2u);
  ASSERT_EQ(cluster.direct_edges.size(), 1u);
  EXPECT_EQ(cluster.direct_edges[0].copier, 1u);
  EXPECT_EQ(cluster.direct_edges[0].original, 2u);
  EXPECT_NEAR(cluster.direct_edges[0].probability, 0.8, 1e-12);
}

TEST(CopyGraph, EdgesCarryPairPosteriors) {
  // The copies CSV promises a pr_a_copies_b column; the graph must
  // plumb the pair posterior through instead of dropping it.
  CopyResult result;
  result.Set(1, 2, Copying(/*first copies second=*/0.8,
                           /*second copies first=*/0.1));
  CopyGraph graph = AnalyzeCopyGraph(result);
  ASSERT_EQ(graph.clusters.size(), 1u);
  ASSERT_EQ(graph.clusters[0].edges.size(), 1u);
  const ClassifiedEdge& edge = graph.clusters[0].edges[0];
  EXPECT_EQ(edge.a, 1u);
  EXPECT_EQ(edge.b, 2u);
  EXPECT_NEAR(edge.pr_a_copies_b, 0.8, 1e-12);
  EXPECT_NEAR(edge.pr_b_copies_a, 0.1, 1e-12);
}

TEST(CopyGraph, StarClusterClassifiesCoCopies) {
  // Sources 1, 2, 3 all copy source 0; detection flags every pair.
  CopyResult result;
  for (SourceId s : {1u, 2u, 3u}) {
    // Pair (0, s): second copies first with high probability.
    result.Set(0, s, Copying(/*first copies second=*/0.05,
                             /*second copies first=*/0.85));
  }
  result.Set(1, 2, Copying(0.45, 0.45));
  result.Set(1, 3, Copying(0.45, 0.45));
  result.Set(2, 3, Copying(0.45, 0.45));

  CopyGraph graph = AnalyzeCopyGraph(result);
  ASSERT_EQ(graph.clusters.size(), 1u);
  const CopyCluster& cluster = graph.clusters[0];
  EXPECT_EQ(cluster.original, 0u);
  EXPECT_EQ(cluster.members.size(), 4u);
  EXPECT_EQ(cluster.direct_edges.size(), 3u);
  size_t co_copies = 0;
  for (const ClassifiedEdge& edge : cluster.edges) {
    if (edge.kind == EdgeKind::kCoCopy) ++co_copies;
  }
  EXPECT_EQ(co_copies, 3u);  // (1,2), (1,3), (2,3)
}

TEST(CopyGraph, SeparateClustersStaySeparate) {
  CopyResult result;
  result.Set(0, 1, Copying(0.7, 0.1));
  result.Set(5, 6, Copying(0.1, 0.7));
  CopyGraph graph = AnalyzeCopyGraph(result);
  ASSERT_EQ(graph.clusters.size(), 2u);
  EXPECT_EQ(graph.NumSources(), 4u);
  EXPECT_EQ(graph.NumPairs(), 2u);
}

TEST(CopyGraph, MotivatingExampleFindsBothCliques) {
  testutil::ExampleFixture fx;
  PairwiseDetector detector(testutil::PaperParams());
  CopyResult result;
  ASSERT_TRUE(detector.DetectRound(fx.Input(), 1, &result).ok());
  CopyGraph graph = AnalyzeCopyGraph(result);
  ASSERT_EQ(graph.clusters.size(), 2u);
  // Clusters {2,3,4} and {6,7,8}.
  EXPECT_EQ(graph.clusters[0].members,
            (std::vector<SourceId>{2, 3, 4}));
  EXPECT_EQ(graph.clusters[1].members,
            (std::vector<SourceId>{6, 7, 8}));
  // The paper's planted originals are S2 and S6; with symmetric
  // evidence the election may pick any member, but the clique
  // structure must be complete.
  EXPECT_EQ(graph.clusters[0].edges.size(), 3u);
  EXPECT_EQ(graph.clusters[1].edges.size(), 3u);
}

TEST(CopyGraph, ElectionMatchesAllPairsReference) {
  for (const char* detector : {"index", "hybrid"}) {
    SCOPED_TRACE(std::string("book-full 0.2 / ") + detector);
    const CopyResult copies = FinalCopies("book-full", 0.2, detector);
    const CopyGraph want = ReferenceAnalyzeCopyGraph(copies);
    // The election must be exercised on a cluster of hundreds.
    size_t largest = 0;
    for (const CopyCluster& c : want.clusters) {
      largest = std::max(largest, c.members.size());
    }
    EXPECT_GT(largest, 100u);
    ExpectSameGraph(AnalyzeCopyGraph(copies), want);
  }
  {
    SCOPED_TRACE("stock-1day 0.1 / hybrid");
    const CopyResult copies = FinalCopies("stock-1day", 0.1, "hybrid");
    const CopyGraph want = ReferenceAnalyzeCopyGraph(copies);
    EXPECT_FALSE(want.clusters.empty());
    ExpectSameGraph(AnalyzeCopyGraph(copies), want);
  }
  {
    SCOPED_TRACE("motivating example");
    testutil::ExampleFixture fx;
    PairwiseDetector detector(testutil::PaperParams());
    CopyResult copies;
    ASSERT_TRUE(detector.DetectRound(fx.Input(), 1, &copies).ok());
    ExpectSameGraph(AnalyzeCopyGraph(copies),
                    ReferenceAnalyzeCopyGraph(copies));
  }
  {
    SCOPED_TRACE("summation order decides a rounding tie");
    // Source 3's incoming mass is (0.1 + 0.2) + 0.3, one ulp above
    // source 0's 0.6; summed in descending partner order it would be
    // 0.6 and the tie would go to source 0.
    CopyResult copies;
    copies.Set(0, 3, PairPosterior{0.3, 0.1, 0.6});
    copies.Set(1, 3, PairPosterior{0.45, 0.2, 0.35});
    copies.Set(2, 3, PairPosterior{0.45, 0.3, 0.25});
    const CopyGraph got = AnalyzeCopyGraph(copies);
    ASSERT_EQ(got.clusters.size(), 1u);
    EXPECT_EQ(got.clusters[0].original, 3u);
    ExpectSameGraph(got, ReferenceAnalyzeCopyGraph(copies));
  }
  {
    SCOPED_TRACE("reversed and self keys");
    // Keys a raw map can hold but PrCopies never reaches.
    FlatHashMap<PairPosterior> map;
    map[PairKey(1, 2)] = PairPosterior{0.1, 0.2, 0.7};
    map[PairKey(2, 3)] = PairPosterior{0.2, 0.6, 0.2};
    map[(uint64_t{3} << 32) | 1] = PairPosterior{0.1, 0.8, 0.1};
    map[(uint64_t{2} << 32) | 2] = PairPosterior{0.1, 0.9, 0.0};
    const CopyResult copies = CopyResult::FromRawMap(std::move(map));
    ExpectSameGraph(AnalyzeCopyGraph(copies),
                    ReferenceAnalyzeCopyGraph(copies));
  }
}

TEST(CopyGraph, PlantedStarOnSyntheticWorld) {
  // Star copier groups: the elected original should usually be the
  // planted one (the copiers' directional evidence points at it).
  testutil::World world = testutil::SmallWorld(701, 40, 300);
  testutil::WorldInput wi(world);
  PairwiseDetector detector(testutil::PaperParams());
  CopyResult result;
  ASSERT_TRUE(detector.DetectRound(wi.Input(world), 1, &result).ok());
  CopyGraph graph = AnalyzeCopyGraph(result);
  ASSERT_FALSE(graph.clusters.empty());
  // Every planted original that appears in a cluster with >= 2 of its
  // copiers should win the election at least half the time.
  size_t checked = 0;
  size_t correct = 0;
  for (const CopyCluster& cluster : graph.clusters) {
    // Find the planted original among members (if any).
    for (const auto& [copier, original] : world.copy_pairs) {
      if (std::find(cluster.members.begin(), cluster.members.end(),
                    original) != cluster.members.end() &&
          cluster.members.size() >= 3) {
        ++checked;
        if (cluster.original == original) ++correct;
        break;
      }
    }
  }
  if (checked > 0) {
    EXPECT_GE(correct * 2, checked);
  }
}

}  // namespace
}  // namespace copydetect
