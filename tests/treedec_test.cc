#include <algorithm>

#include "circuits/bool_circuit.h"
#include "gtest/gtest.h"
#include "treedec/elimination.h"
#include "treedec/elimination_graph.h"
#include "treedec/graph.h"
#include "treedec/nice_decomposition.h"
#include "treedec/tree_decomposition.h"
#include "util/rng.h"

namespace tud {
namespace {

Graph PathGraph(uint32_t n) {
  Graph g(n);
  for (uint32_t i = 0; i + 1 < n; ++i) g.AddEdge(i, i + 1);
  return g;
}

Graph CycleGraph(uint32_t n) {
  Graph g = PathGraph(n);
  g.AddEdge(n - 1, 0);
  return g;
}

Graph CompleteGraph(uint32_t n) {
  Graph g(n);
  for (uint32_t i = 0; i < n; ++i) {
    for (uint32_t j = i + 1; j < n; ++j) g.AddEdge(i, j);
  }
  return g;
}

Graph GridGraph(uint32_t rows, uint32_t cols) {
  Graph g(rows * cols);
  for (uint32_t r = 0; r < rows; ++r) {
    for (uint32_t c = 0; c < cols; ++c) {
      if (c + 1 < cols) g.AddEdge(r * cols + c, r * cols + c + 1);
      if (r + 1 < rows) g.AddEdge(r * cols + c, (r + 1) * cols + c);
    }
  }
  return g;
}

Graph RandomGraph(uint32_t n, double p, uint64_t seed) {
  Rng rng(seed);
  Graph g(n);
  for (uint32_t i = 0; i < n; ++i) {
    for (uint32_t j = i + 1; j < n; ++j) {
      if (rng.Bernoulli(p)) g.AddEdge(i, j);
    }
  }
  return g;
}

TEST(GraphTest, BasicOperations) {
  Graph g(4);
  g.AddEdge(0, 1);
  g.AddEdge(1, 2);
  g.AddEdge(1, 2);  // Duplicate ignored.
  g.AddEdge(2, 2);  // Self-loop ignored.
  EXPECT_EQ(g.NumEdges(), 2u);
  EXPECT_TRUE(g.HasEdge(0, 1));
  EXPECT_TRUE(g.HasEdge(1, 0));
  EXPECT_FALSE(g.HasEdge(0, 2));
  EXPECT_EQ(g.Degree(1), 2u);
  EXPECT_EQ(g.Degree(3), 0u);
}

TEST(EliminationTest, OrdersArePermutations) {
  Graph g = GridGraph(4, 4);
  for (const auto& order : {MinFillOrder(g), MinDegreeOrder(g)}) {
    std::vector<VertexId> sorted = order;
    std::sort(sorted.begin(), sorted.end());
    for (uint32_t i = 0; i < 16; ++i) EXPECT_EQ(sorted[i], i);
  }
}

TEST(EliminationTest, PathHasWidthOne) {
  Graph g = PathGraph(10);
  EXPECT_EQ(EliminationWidth(g, MinFillOrder(g)), 1u);
  EXPECT_EQ(EliminationWidth(g, MinDegreeOrder(g)), 1u);
}

TEST(EliminationTest, CycleHasWidthTwo) {
  Graph g = CycleGraph(8);
  EXPECT_EQ(EliminationWidth(g, MinFillOrder(g)), 2u);
}

TEST(EliminationTest, CliqueHasWidthNMinusOne) {
  Graph g = CompleteGraph(6);
  EXPECT_EQ(EliminationWidth(g, MinFillOrder(g)), 5u);
}

// A random partial k-tree: a (k+1)-clique grown by vertices that each
// join a random k-clique of the graph so far, then with every edge
// kept with probability `keep`.
Graph RandomPartialKTree(uint32_t n, uint32_t k, double keep, uint64_t seed) {
  Rng rng(seed);
  std::vector<std::pair<VertexId, VertexId>> edges;
  std::vector<std::vector<VertexId>> cliques;  // k-cliques so far.
  for (VertexId v = 0; v <= k; ++v) {
    for (VertexId u = 0; u < v; ++u) edges.emplace_back(u, v);
    std::vector<VertexId> clique;
    for (VertexId u = 0; u <= k; ++u) {
      if (u != v) clique.push_back(u);
    }
    cliques.push_back(std::move(clique));
  }
  for (VertexId v = k + 1; v < n; ++v) {
    const std::vector<VertexId> base = cliques[rng.UniformInt(cliques.size())];
    for (VertexId u : base) edges.emplace_back(u, v);
    for (size_t drop = 0; drop < base.size(); ++drop) {
      std::vector<VertexId> clique = base;
      clique[drop] = v;
      cliques.push_back(std::move(clique));
    }
  }
  Graph g(n);
  for (const auto& [u, v] : edges) {
    if (rng.Bernoulli(keep)) g.AddEdge(u, v);
  }
  return g;
}

// The primal graph of a random circuit with fan-in up to 4, binarised.
Graph RandomCircuitPrimalGraph(uint32_t num_events, uint32_t num_gates,
                               uint64_t seed) {
  Rng rng(seed);
  BoolCircuit c;
  std::vector<GateId> pool;
  for (EventId e = 0; e < num_events; ++e) pool.push_back(c.AddVar(e));
  for (uint32_t i = 0; i < num_gates; ++i) {
    std::vector<GateId> inputs(2 + rng.UniformInt(3));
    for (GateId& in : inputs) in = pool[rng.UniformInt(pool.size())];
    switch (rng.UniformInt(3)) {
      case 0:
        pool.push_back(c.AddNot(inputs[0]));
        break;
      case 1:
        pool.push_back(c.AddAnd(std::move(inputs)));
        break;
      default:
        pool.push_back(c.AddOr(std::move(inputs)));
        break;
    }
  }
  const BoolCircuit bin = c.Binarize().first;
  Graph g(static_cast<uint32_t>(bin.NumGates()));
  for (const auto& [a, b] : bin.PrimalEdges()) g.AddEdge(a, b);
  return g;
}

// Every ordering reports the width and table cost of the order it
// returns exactly as a replay of that order measures them (the cost
// bit for bit: EXPECT_EQ on the double).
void ExpectOrderingsReportTheirReplay(const Graph& g) {
  using Ordering = std::vector<VertexId> (*)(const Graph&,
                                             EliminationProfile*);
  for (Ordering ordering : {&MinFillOrder, &MinDegreeOrder,
                            &PeeledMinFillOrder, &CircuitMinDegreeOrder}) {
    EliminationProfile reported;
    reported.width = 12345;  // Overwritten, not accumulated into.
    const std::vector<VertexId> order = ordering(g, &reported);
    double cost = -1;
    EXPECT_EQ(reported.width, EliminationWidthAndCost(g, order, &cost));
    EXPECT_EQ(reported.table_cost, cost);
    // Reporting does not change the order.
    EXPECT_EQ(ordering(g, nullptr), order);
  }
}

class OrderingProfileTest : public ::testing::TestWithParam<int> {};

TEST_P(OrderingProfileTest, PartialKTreesReportTheirReplay) {
  Rng rng(GetParam() + 300);
  const uint32_t k = 1 + static_cast<uint32_t>(rng.UniformInt(5));
  const uint32_t n = k + 2 + static_cast<uint32_t>(rng.UniformInt(150));
  ExpectOrderingsReportTheirReplay(
      RandomPartialKTree(n, k, 0.6 + 0.4 * rng.UniformDouble(),
                         GetParam() * 7919 + 3));
}

TEST_P(OrderingProfileTest, CircuitPrimalGraphsReportTheirReplay) {
  ExpectOrderingsReportTheirReplay(
      RandomCircuitPrimalGraph(6 + GetParam() % 5, 30 + 10 * GetParam(),
                               GetParam() * 104729 + 11));
}

INSTANTIATE_TEST_SUITE_P(Seeds, OrderingProfileTest, ::testing::Range(0, 12));

TEST(OrderingProfileTest, SparseGraphAboveDenseLimitReportsItsReplay) {
  // Above kDenseVertexLimit the orderings eliminate on the hash-set
  // SparseEliminationGraph instead of the dense bitset rows.
  Graph g = RandomPartialKTree(kDenseVertexLimit + 500, 2, 0.8, 77);
  ASSERT_GT(g.NumVertices(), kDenseVertexLimit);
  ExpectOrderingsReportTheirReplay(g);
}

TEST(OrderingProfileTest, EmptyGraphReportsZero) {
  EliminationProfile reported{7, 7.0};
  EXPECT_TRUE(MinFillOrder(Graph(0), &reported).empty());
  EXPECT_EQ(reported.width, 0u);
  EXPECT_EQ(reported.table_cost, 0.0);
}

TEST(ExactTreewidthTest, KnownValues) {
  EXPECT_EQ(ExactTreewidth(PathGraph(8)), 1u);
  EXPECT_EQ(ExactTreewidth(CycleGraph(8)), 2u);
  EXPECT_EQ(ExactTreewidth(CompleteGraph(5)), 4u);
  EXPECT_EQ(ExactTreewidth(GridGraph(3, 3)), 3u);
  EXPECT_EQ(ExactTreewidth(Graph(3)), 0u);  // Edgeless.
  EXPECT_EQ(ExactTreewidth(GridGraph(4, 4), 10), std::nullopt);  // Too big.
}

TEST(ExactTreewidthTest, HeuristicsAreUpperBounds) {
  for (uint64_t seed = 0; seed < 10; ++seed) {
    Graph g = RandomGraph(10, 0.3, seed);
    uint32_t exact = *ExactTreewidth(g);
    EXPECT_GE(EliminationWidth(g, MinFillOrder(g)), exact);
    EXPECT_GE(EliminationWidth(g, MinDegreeOrder(g)), exact);
  }
}

TEST(TreeDecompositionTest, TrivialIsValid) {
  Graph g = CycleGraph(5);
  TreeDecomposition td = TreeDecomposition::Trivial(g);
  EXPECT_TRUE(td.IsValidFor(g));
  EXPECT_EQ(td.Width(), 4);
}

class DecompositionPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(DecompositionPropertyTest, EliminationDecompositionIsValid) {
  Rng rng(GetParam());
  uint32_t n = 5 + static_cast<uint32_t>(rng.UniformInt(15));
  Graph g = RandomGraph(n, 0.25, GetParam() * 977 + 1);
  std::vector<VertexId> order = MinFillOrder(g);
  TreeDecomposition td = TreeDecomposition::FromEliminationOrder(g, order);
  EXPECT_TRUE(td.IsValidFor(g));
  EXPECT_EQ(td.Width(), static_cast<int>(EliminationWidth(g, order)));
}

TEST_P(DecompositionPropertyTest, NiceDecompositionIsWellFormed) {
  Rng rng(GetParam() + 500);
  uint32_t n = 5 + static_cast<uint32_t>(rng.UniformInt(10));
  Graph g = RandomGraph(n, 0.3, GetParam() * 31 + 7);
  TreeDecomposition td =
      TreeDecomposition::FromEliminationOrder(g, MinFillOrder(g));
  NiceTreeDecomposition nice =
      NiceTreeDecomposition::FromTreeDecomposition(td);
  EXPECT_TRUE(nice.IsWellFormed());
  EXPECT_EQ(nice.Width(), td.Width());
  // Every graph edge is covered by some nice bag.
  for (VertexId v = 0; v < n; ++v) {
    for (VertexId u : g.Neighbors(v)) {
      if (u < v) continue;
      EXPECT_NE(nice.FindNodeCovering({v, u}), kInvalidNiceNode)
          << "edge " << v << "-" << u;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DecompositionPropertyTest,
                         ::testing::Range(0, 20));

TEST(TreeDecompositionTest, BagOfVertexCoversCliques) {
  Graph g = CompleteGraph(4);
  std::vector<VertexId> order = MinFillOrder(g);
  std::vector<uint32_t> position(4);
  for (uint32_t i = 0; i < 4; ++i) position[order[i]] = i;
  std::vector<BagId> bag_of;
  TreeDecomposition td =
      TreeDecomposition::FromEliminationOrder(g, order, &bag_of);
  // The whole graph is a clique: the bag of the first-eliminated vertex
  // must contain all vertices.
  const auto& bag = td.bag(bag_of[order[0]]);
  EXPECT_EQ(bag.size(), 4u);
}

TEST(TreeDecompositionTest, FindBagContaining) {
  Graph g = PathGraph(5);
  TreeDecomposition td =
      TreeDecomposition::FromEliminationOrder(g, MinFillOrder(g));
  EXPECT_NE(td.FindBagContaining({2, 3}), kInvalidBag);
  EXPECT_EQ(td.FindBagContaining({0, 4}), kInvalidBag);
}

TEST(TreeDecompositionTest, InvalidDecompositionDetected) {
  Graph g = PathGraph(3);
  TreeDecomposition td;
  td.AddBag({0, 1}, kInvalidBag);
  // Missing vertex 2 and edge {1,2}.
  EXPECT_FALSE(td.IsValidFor(g));
}

TEST(TreeDecompositionTest, DisconnectedOccurrencesDetected) {
  Graph g(3);
  g.AddEdge(0, 1);
  g.AddEdge(1, 2);
  TreeDecomposition td;
  BagId root = td.AddBag({0, 1}, kInvalidBag);
  BagId middle = td.AddBag({1, 2}, root);
  td.AddBag({0}, middle);  // Vertex 0 reappears below a bag without it.
  EXPECT_FALSE(td.IsValidFor(g));
}

TEST(NiceDecompositionTest, PathDecomposition) {
  Graph g = PathGraph(6);
  TreeDecomposition td =
      TreeDecomposition::FromEliminationOrder(g, MinFillOrder(g));
  NiceTreeDecomposition nice =
      NiceTreeDecomposition::FromTreeDecomposition(td);
  EXPECT_TRUE(nice.IsWellFormed());
  EXPECT_EQ(nice.Width(), 1);
  EXPECT_TRUE(nice.bag(nice.root()).empty());
}

TEST(NiceDecompositionTest, TopOfBagMapsToMatchingBags) {
  Graph g = GridGraph(3, 3);
  TreeDecomposition td =
      TreeDecomposition::FromEliminationOrder(g, MinFillOrder(g));
  std::vector<NiceNodeId> top_of_bag;
  NiceTreeDecomposition nice =
      NiceTreeDecomposition::FromTreeDecomposition(td, &top_of_bag);
  ASSERT_EQ(top_of_bag.size(), td.NumBags());
  for (BagId b = 0; b < td.NumBags(); ++b) {
    EXPECT_EQ(nice.bag(top_of_bag[b]), td.bag(b));
  }
}

}  // namespace
}  // namespace tud
