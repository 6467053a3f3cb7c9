#ifndef TUD_TREEDEC_ELIMINATION_H_
#define TUD_TREEDEC_ELIMINATION_H_

#include <algorithm>
#include <cstdint>
#include <optional>
#include <vector>

#include "treedec/graph.h"

namespace tud {

/// Degrees at or above this many bits saturate a bag's table cost to
/// 2^kEliminationCostCapBits, so pathological orders cannot overflow the
/// double's dynamic range; any such order is far past exact-inference
/// feasibility anyway.
inline constexpr uint32_t kEliminationCostCapBits = 63;

/// What eliminating the vertices in order costs: the width (the maximum,
/// over eliminated vertices, of the number of not-yet-eliminated
/// neighbors at elimination time, in the progressively filled graph —
/// the width of the derived tree decomposition) and the table cost
/// Σ_v 2^(deg(v)+1), summed in elimination order — the total table-entry
/// count of the decomposition the order derives (each eliminated
/// vertex's bag is its closed filled neighborhood), i.e. the work of one
/// message pass over it, and the unit of the batch planner's
/// shared-vs-per-root cost model.
struct EliminationProfile {
  uint32_t width = 0;
  double table_cost = 0;

  /// Accounts for eliminating a vertex of current degree `degree`.
  void Add(uint32_t degree) {
    width = std::max(width, degree);
    const uint32_t bits = std::min(degree + 1, kEliminationCostCapBits);
    table_cost += static_cast<double>(uint64_t{1} << bits);
  }
};

/// Heuristics producing vertex elimination orders, from which tree
/// decompositions are derived (TreeDecomposition::FromEliminationOrder).
/// Both are the standard upper-bound heuristics; min-fill usually yields
/// smaller width, min-degree is faster. X10 (treedec ablation) compares
/// them against exact treewidth on small graphs.
///
/// Each ordering reports, through a non-null `profile`, the width and
/// table cost of the order it returns, accumulated as it eliminates —
/// equal (the cost bit for bit: same terms, same order) to what
/// EliminationWidthAndCost measures by replaying the order, without the
/// second sweep.

/// Min-fill: repeatedly eliminates the vertex whose elimination adds the
/// fewest fill edges (ties broken by smaller degree, then smaller id).
std::vector<VertexId> MinFillOrder(const Graph& graph,
                                   EliminationProfile* profile = nullptr);

/// Min-degree: repeatedly eliminates a vertex of minimum current degree.
std::vector<VertexId> MinDegreeOrder(const Graph& graph,
                                     EliminationProfile* profile = nullptr);

/// Min-fill preceded by a linear-time peel of all vertices of (current)
/// degree <= 2 — the islet/twig/series reduction rules. Degree-<=1
/// vertices are peeled with priority, so forests stay width 1; the
/// series rule is width-preserving on everything else (treewidth >= 2).
std::vector<VertexId> PeeledMinFillOrder(
    const Graph& graph, EliminationProfile* profile = nullptr);

/// Bucket-queue min-degree: every queue operation is O(1), so the order
/// costs little more than the eliminations themselves. The fast path of
/// the junction-tree inference pipeline for circuit primal graphs; it is
/// not as narrow as min-fill (the canonical reachability lineage of
/// ktree:400x3 comes out at width 53 against min-fill's 44), so the
/// pipeline falls back to min-fill when the cheap order comes out wide.
std::vector<VertexId> CircuitMinDegreeOrder(
    const Graph& graph, EliminationProfile* profile = nullptr);

/// The reference definition the orderings' reports are checked against:
/// the width of `order`, measured by replaying it on a fresh elimination
/// graph.
uint32_t EliminationWidth(const Graph& graph,
                          const std::vector<VertexId>& order);

/// As EliminationWidth, additionally storing the order's table cost
/// (EliminationProfile::table_cost) into `*table_cost`.
uint32_t EliminationWidthAndCost(const Graph& graph,
                                 const std::vector<VertexId>& order,
                                 double* table_cost);

/// Exact treewidth by branch-and-bound over elimination orders with
/// memoisation on eliminated subsets. Exponential: only for graphs with
/// at most `max_vertices` (default 16) vertices; returns nullopt above.
std::optional<uint32_t> ExactTreewidth(const Graph& graph,
                                       uint32_t max_vertices = 16);

}  // namespace tud

#endif  // TUD_TREEDEC_ELIMINATION_H_
