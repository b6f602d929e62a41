#ifndef COPYDETECT_CORE_COPY_GRAPH_H_
#define COPYDETECT_CORE_COPY_GRAPH_H_

#include <cstdint>
#include <vector>

#include "core/copy_result.h"
#include "model/types.h"

namespace copydetect {

/// Post-processing of a detection round's pairwise posteriors into a
/// structured copy graph — the §VIII / Dong-et-al.-2010 direction the
/// paper defers ("distinguish direct copying from co-copying and
/// transitive copying"). Pairwise detection flags every pair inside a
/// copier clique; this module organizes those pairs into clusters,
/// elects likely originals and classifies the remaining edges.
struct CopyEdge {
  SourceId copier = kInvalidSource;
  SourceId original = kInvalidSource;
  /// Pr(copier copies original) from the pairwise posterior.
  double probability = 0.0;
};

enum class EdgeKind : uint8_t {
  kDirect,   ///< copier -> elected original
  kCoCopy,   ///< two copiers of the same original
  kIndirect, ///< connected only through other members
};

struct ClassifiedEdge {
  SourceId a = kInvalidSource;
  SourceId b = kInvalidSource;
  EdgeKind kind = EdgeKind::kDirect;
  /// Pr(a copies from b) from the detection posterior — carried so
  /// downstream consumers (e.g. the CLI's copies CSV) can report the
  /// pair strength without re-querying the CopyResult.
  double pr_a_copies_b = 0.0;
  /// Pr(b copies from a), the opposite direction.
  double pr_b_copies_a = 0.0;
};

/// One connected component of the copying graph.
struct CopyCluster {
  /// Members sorted ascending.
  std::vector<SourceId> members;
  /// Elected original: the member most often favored as the copied
  /// side by the directional posteriors (ties to smallest id).
  SourceId original = kInvalidSource;
  /// Directed edges copier -> original for the elected original.
  std::vector<CopyEdge> direct_edges;
  /// Classification of every detected pair inside the cluster.
  std::vector<ClassifiedEdge> edges;
};

/// The full analysis output.
struct CopyGraph {
  std::vector<CopyCluster> clusters;

  /// Total detected copying pairs across clusters.
  size_t NumPairs() const;
  /// Sources involved in any cluster.
  size_t NumSources() const;
};

/// Builds the copy graph from a detection result:
///  1. connected components over pairs with Pr(independent) <= 0.5;
///  2. per component, elect the original as the member maximizing the
///     sum of incoming "is copied" probability mass
///     (Σ over partners of Pr(partner copies member)), ties to the
///     smallest id. Each sum runs over the member's tracked
///     in-cluster partners in ascending id order, so it is one fixed
///     double. It is built in one pass over those pairs sorted by
///     pair key (smaller id, larger id), adding each pair's two
///     directions: in key order member x first meets the pairs
///     (a, x) for its partners a < x, by ascending a, and then the
///     pairs (x, b) for its partners b > x, by ascending b — its
///     partners in ascending order;
///  3. classify each detected pair: (copier, original) pairs are
///     kDirect; pairs of two sources that both have a direct edge to
///     the original are kCoCopy; everything else kIndirect.
CopyGraph AnalyzeCopyGraph(const CopyResult& result);

}  // namespace copydetect

#endif  // COPYDETECT_CORE_COPY_GRAPH_H_
