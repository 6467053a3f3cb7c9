#include "treedec/elimination.h"

#include <algorithm>
#include <bit>
#include <limits>
#include <queue>
#include <tuple>
#include <unordered_set>

#include "automata/state_set.h"  // Word-level bitset helpers.
#include "treedec/elimination_graph.h"
#include "util/check.h"

namespace tud {

namespace {

template <typename WorkGraph>
std::vector<VertexId> GreedyOrder(const Graph& graph, bool use_fill,
                                  bool peel, EliminationProfile* profile) {
  // Lazy-heap greedy elimination: each heap entry snapshots a vertex's
  // (score, degree, id, version); stale entries (version mismatch) are
  // dropped on pop. Eliminating v only changes the scores of vertices in
  // its (post-elimination) two-hop neighborhood, so the heap is repaired
  // locally — near-linear on the sparse graphs the library produces,
  // versus a full rescan per elimination.
  const uint32_t n = graph.NumVertices();
  WorkGraph work(graph);
  std::vector<uint64_t> version(n, 0);

  std::vector<VertexId> order;
  order.reserve(n);

  if (peel) {
    // Peel phase: repeatedly eliminate vertices of degree <= 2. The
    // islet/twig rules (degree <= 1) are always width-safe; the series
    // rule (degree 2) is width-safe whenever treewidth >= 2, and
    // processing the degree-<=1 bucket first guarantees it is only ever
    // applied when no degree-<=1 vertex remains — so forests are peeled
    // entirely by the safe rules and keep width 1. On binarised circuit
    // graphs the peel removes the vast majority of vertices in linear
    // time, leaving the heap machinery a small core.
    std::vector<VertexId> low_stack, two_stack;
    for (VertexId v = 0; v < n; ++v) {
      if (work.Degree(v) <= 1) {
        low_stack.push_back(v);
      } else if (work.Degree(v) == 2) {
        two_stack.push_back(v);
      }
    }
    std::vector<VertexId> ring;
    while (!low_stack.empty() || !two_stack.empty()) {
      VertexId v;
      if (!low_stack.empty()) {
        v = low_stack.back();
        low_stack.pop_back();
        if (!work.alive(v) || work.Degree(v) > 1) continue;
      } else {
        v = two_stack.back();
        two_stack.pop_back();
        if (!work.alive(v) || work.Degree(v) != 2) continue;
      }
      order.push_back(v);
      profile->Add(work.Degree(v));
      ring.clear();
      work.ForEachNeighbor(v, [&](VertexId u) { ring.push_back(u); });
      work.Eliminate(v);
      for (VertexId u : ring) {
        if (!work.alive(u)) continue;
        if (work.Degree(u) <= 1) {
          low_stack.push_back(u);
        } else if (work.Degree(u) == 2) {
          two_stack.push_back(u);
        }
      }
    }
  }

  using Entry = std::tuple<size_t, uint32_t, VertexId, uint64_t>;
  std::priority_queue<Entry, std::vector<Entry>, std::greater<Entry>> heap;
  constexpr size_t kFillCap = 256;
  auto push = [&](VertexId v) {
    size_t primary =
        use_fill ? work.FillCount(v, kFillCap) : work.Degree(v);
    uint32_t secondary = use_fill ? work.Degree(v) : 0;
    heap.emplace(primary, secondary, v, version[v]);
  };
  for (VertexId v = 0; v < n; ++v) {
    if (work.alive(v)) push(v);
  }
  constexpr uint16_t kRingMark = UINT16_MAX;
  std::vector<uint16_t> mark(n, 0);
  std::vector<VertexId> ring, affected, touched;
  while (order.size() < n) {
    TUD_CHECK(!heap.empty());
    auto [primary, secondary, v, entry_version] = heap.top();
    heap.pop();
    if (!work.alive(v) || entry_version != version[v]) continue;
    order.push_back(v);
    profile->Add(work.Degree(v));
    // Vertices whose score actually changes: v's neighbors (adjacency
    // and degree change), plus — for min-fill — outside vertices with
    // at least TWO neighbors in the ring: elimination only adds edges
    // inside the ring, and a new edge (a, b) changes the fill count of
    // exactly the common neighbors of a and b. One-ring-neighbor
    // vertices keep their scores, and their live heap entries with them.
    ring.clear();
    work.ForEachNeighbor(v, [&](VertexId u) { ring.push_back(u); });
    work.Eliminate(v);
    affected.clear();
    touched.clear();
    for (VertexId u : ring) {
      mark[u] = kRingMark;
      affected.push_back(u);
    }
    if (use_fill) {
      for (VertexId u : ring) {
        work.ForEachNeighbor(u, [&](VertexId w) {
          if (mark[w] == kRingMark || mark[w] == 2) return;
          if (mark[w] == 0) {
            touched.push_back(w);
            mark[w] = 1;
          } else {
            mark[w] = 2;
            affected.push_back(w);
          }
        });
      }
      for (VertexId w : touched) mark[w] = 0;
    }
    for (VertexId u : affected) {
      mark[u] = 0;
      if (!work.alive(u)) continue;
      ++version[u];
      push(u);
    }
  }
  return order;
}

std::vector<VertexId> GreedyOrderDispatch(const Graph& graph, bool use_fill,
                                          bool peel,
                                          EliminationProfile* profile) {
  EliminationProfile local;
  if (profile == nullptr) profile = &local;
  *profile = EliminationProfile{};
  if (graph.NumVertices() <= kDenseVertexLimit) {
    return GreedyOrder<DenseEliminationGraph>(graph, use_fill, peel, profile);
  }
  return GreedyOrder<SparseEliminationGraph>(graph, use_fill, peel, profile);
}

}  // namespace

std::vector<VertexId> MinFillOrder(const Graph& graph,
                                   EliminationProfile* profile) {
  return GreedyOrderDispatch(graph, /*use_fill=*/true, /*peel=*/false,
                             profile);
}

std::vector<VertexId> MinDegreeOrder(const Graph& graph,
                                     EliminationProfile* profile) {
  return GreedyOrderDispatch(graph, /*use_fill=*/false, /*peel=*/false,
                             profile);
}

std::vector<VertexId> PeeledMinFillOrder(const Graph& graph,
                                         EliminationProfile* profile) {
  return GreedyOrderDispatch(graph, /*use_fill=*/true, /*peel=*/true,
                             profile);
}

std::vector<VertexId> CircuitMinDegreeOrder(const Graph& graph,
                                            EliminationProfile* profile) {
  // Min-degree with a bucket queue instead of a binary heap: degrees are
  // small integers and only change for the eliminated vertex's ring, so
  // every queue operation is O(1) (stale entries are dropped on pop by
  // re-checking the live degree). Each vertex is popped at its current
  // degree, which is what the profile accumulates.
  EliminationProfile local;
  if (profile == nullptr) profile = &local;
  *profile = EliminationProfile{};
  const uint32_t n = graph.NumVertices();
  std::vector<VertexId> order;
  order.reserve(n);
  auto run = [&](auto work) {
    std::vector<std::vector<VertexId>> buckets;
    auto bucket_push = [&](VertexId v, uint32_t degree) {
      if (buckets.size() <= degree) buckets.resize(degree + 1);
      buckets[degree].push_back(v);
    };
    for (VertexId v = 0; v < n; ++v) bucket_push(v, work.Degree(v));
    uint32_t d = 0;
    std::vector<VertexId> ring;
    while (order.size() < n) {
      while (d < buckets.size() && buckets[d].empty()) ++d;
      TUD_CHECK_LT(d, buckets.size());
      const VertexId v = buckets[d].back();
      buckets[d].pop_back();
      if (!work.alive(v) || work.Degree(v) != d) continue;  // Stale entry.
      order.push_back(v);
      profile->Add(d);
      ring.clear();
      work.ForEachNeighbor(v, [&](VertexId u) { ring.push_back(u); });
      work.Eliminate(v);
      for (VertexId u : ring) {
        const uint32_t du = work.Degree(u);
        bucket_push(u, du);
        if (du < d) d = du;
      }
    }
  };
  if (n <= kDenseVertexLimit) {
    run(DenseEliminationGraph(graph));
  } else {
    run(SparseEliminationGraph(graph));
  }
  return order;
}

uint32_t EliminationWidth(const Graph& graph,
                          const std::vector<VertexId>& order) {
  return EliminationWidthAndCost(graph, order, nullptr);
}

uint32_t EliminationWidthAndCost(const Graph& graph,
                                 const std::vector<VertexId>& order,
                                 double* table_cost) {
  TUD_CHECK_EQ(order.size(), graph.NumVertices());
  SparseEliminationGraph work(graph);
  EliminationProfile profile;
  for (VertexId v : order) {
    profile.Add(work.Degree(v));
    work.Eliminate(v);
  }
  if (table_cost != nullptr) *table_cost = profile.table_cost;
  return profile.width;
}

namespace {

// Degree of v after eliminating the vertex set T (v not in T): the number
// of vertices u outside T∪{v} reachable from v by a path whose internal
// vertices all lie in T. This is the well-known characterisation of fill
// neighborhoods, independent of the order in which T was eliminated.
uint32_t ResidualDegree(const Graph& graph, VertexId v, uint64_t t_mask) {
  uint64_t visited = 1ULL << v;
  uint64_t reached_outside = 0;
  std::vector<VertexId> stack = {v};
  while (!stack.empty()) {
    VertexId x = stack.back();
    stack.pop_back();
    for (VertexId u : graph.Neighbors(x)) {
      if ((visited >> u) & 1) continue;
      visited |= 1ULL << u;
      if ((t_mask >> u) & 1) {
        stack.push_back(u);  // Internal vertex: continue through it.
      } else {
        reached_outside |= 1ULL << u;
      }
    }
  }
  return static_cast<uint32_t>(std::popcount(reached_outside));
}

}  // namespace

std::optional<uint32_t> ExactTreewidth(const Graph& graph,
                                       uint32_t max_vertices) {
  const uint32_t n = graph.NumVertices();
  if (n > max_vertices || n > 24) return std::nullopt;
  if (n == 0) return 0;
  // DP over eliminated subsets (Bodlaender et al.): Q(S) is the minimum,
  // over orders eliminating exactly S first, of the maximum elimination
  // degree seen. Q(∅) = 0; Q(S) = min_{v∈S} max(Q(S\{v}), deg(v, S\{v})).
  const uint64_t full = (n == 64) ? ~0ULL : ((1ULL << n) - 1);
  std::vector<uint32_t> q(static_cast<size_t>(full) + 1,
                          std::numeric_limits<uint32_t>::max());
  q[0] = 0;
  // Iterate masks in increasing value; every subset S\{v} < S numerically.
  for (uint64_t s = 1; s <= full; ++s) {
    uint32_t best = std::numeric_limits<uint32_t>::max();
    for (VertexId v = 0; v < n; ++v) {
      if (!((s >> v) & 1)) continue;
      uint64_t rest = s & ~(1ULL << v);
      uint32_t prefix = q[rest];
      if (prefix == std::numeric_limits<uint32_t>::max()) continue;
      uint32_t deg = ResidualDegree(graph, v, rest);
      best = std::min(best, std::max(prefix, deg));
    }
    q[s] = best;
  }
  return q[full];
}

}  // namespace tud
