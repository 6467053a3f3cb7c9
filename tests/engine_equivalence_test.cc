// Equivalence suite for the unified ProbabilityEngine interface: every
// adapter (and the AutoEngine planner's choice) must agree with
// exhaustive world enumeration on randomized circuits, with and
// without evidence pinning. Exact engines agree to float tolerance,
// sampling-based engines within their Monte-Carlo error.

#include <algorithm>
#include <cmath>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "inference/engine.h"
#include "inference/exhaustive.h"
#include "inference/hybrid.h"
#include "inference/junction_tree.h"
#include "queries/query_session.h"
#include "uncertain/c_instance.h"
#include "uncertain/tid_instance.h"
#include "util/rng.h"
#include "workloads/workloads.h"

namespace tud {
namespace {

BoolCircuit RandomCircuit(Rng& rng, uint32_t num_events, uint32_t num_gates,
                          GateId* root) {
  BoolCircuit c;
  std::vector<GateId> pool;
  for (EventId e = 0; e < num_events; ++e) pool.push_back(c.AddVar(e));
  for (uint32_t i = 0; i < num_gates; ++i) {
    GateId a = pool[rng.UniformInt(pool.size())];
    GateId b = pool[rng.UniformInt(pool.size())];
    switch (rng.UniformInt(3)) {
      case 0:
        pool.push_back(c.AddNot(a));
        break;
      case 1:
        pool.push_back(c.AddAnd(a, b));
        break;
      default:
        pool.push_back(c.AddOr(a, b));
        break;
    }
  }
  *root = pool.back();
  return c;
}

EventRegistry RandomRegistry(Rng& rng, uint32_t num_events) {
  EventRegistry registry;
  for (uint32_t i = 0; i < num_events; ++i) {
    registry.Register("e" + std::to_string(i),
                      0.05 + 0.9 * rng.UniformDouble());
  }
  return registry;
}

// Ground truth for conditional queries: pin the evidence by restriction
// and enumerate the remaining events.
double ExactConditional(const BoolCircuit& circuit, GateId root,
                        const EventRegistry& registry,
                        const Evidence& evidence) {
  std::vector<std::optional<bool>> fixed(registry.size());
  for (const auto& [e, v] : evidence) fixed[e] = v;
  auto [restricted, restricted_root] = RestrictCircuit(circuit, root, fixed);
  return ExhaustiveProbability(restricted, restricted_root, registry);
}

class EngineEquivalenceTest : public ::testing::TestWithParam<int> {};

TEST_P(EngineEquivalenceTest, ExactEnginesMatchEnumeration) {
  Rng rng(GetParam());
  GateId root;
  BoolCircuit c = RandomCircuit(rng, 7, 25, &root);
  EventRegistry registry = RandomRegistry(rng, 7);
  const double exact = ExhaustiveProbability(c, root, registry);

  ExhaustiveEngine exhaustive;
  JunctionTreeEngine junction_tree;
  JunctionTreeEngine junction_tree_seeded(/*seed_topological=*/true);
  BddEngine bdd;
  ConditioningEngine conditioning;
  AutoEngine auto_engine;
  ProbabilityEngine* engines[] = {&exhaustive,   &junction_tree,
                                  &junction_tree_seeded,
                                  &bdd,          &conditioning,
                                  &auto_engine};
  for (ProbabilityEngine* engine : engines) {
    EngineResult result = engine->Estimate(c, root, registry);
    EXPECT_NEAR(result.value, exact, 1e-9) << engine->name();
    EXPECT_EQ(result.error_bound, 0.0) << engine->name();
  }
}

TEST_P(EngineEquivalenceTest, SamplingEnginesConverge) {
  Rng rng(GetParam() + 100);
  GateId root;
  BoolCircuit c = RandomCircuit(rng, 8, 30, &root);
  EventRegistry registry = RandomRegistry(rng, 8);
  const double exact = ExhaustiveProbability(c, root, registry);

  SamplingEngine sampling(40000, GetParam() + 1);
  EngineResult sampled = sampling.Estimate(c, root, registry);
  EXPECT_NEAR(sampled.value, exact, 0.05);
  EXPECT_GT(sampled.error_bound, 0.0);
  EXPECT_EQ(sampled.stats.num_samples, 40000u);

  HybridEngine hybrid(/*target_width=*/2, /*max_core=*/4,
                      /*num_samples=*/4000, GetParam() + 1);
  EngineResult hybridised = hybrid.Estimate(c, root, registry);
  EXPECT_NEAR(hybridised.value, exact, 0.05);
}

TEST_P(EngineEquivalenceTest, EvidencePinningMatchesEnumeration) {
  Rng rng(GetParam() + 200);
  GateId root;
  BoolCircuit c = RandomCircuit(rng, 7, 25, &root);
  EventRegistry registry = RandomRegistry(rng, 7);
  const Evidence evidence = {{0, true}, {1, false}};
  const double exact = ExactConditional(c, root, registry, evidence);

  ExhaustiveEngine exhaustive;
  JunctionTreeEngine junction_tree;
  JunctionTreeEngine junction_tree_seeded(/*seed_topological=*/true);
  BddEngine bdd;
  ConditioningEngine conditioning;
  AutoEngine auto_engine;
  ProbabilityEngine* engines[] = {&exhaustive,   &junction_tree,
                                  &junction_tree_seeded,
                                  &bdd,          &conditioning,
                                  &auto_engine};
  for (ProbabilityEngine* engine : engines) {
    EngineResult result = engine->Estimate(c, root, registry, evidence);
    EXPECT_NEAR(result.value, exact, 1e-9) << engine->name();
  }

  SamplingEngine sampling(40000, GetParam() + 1);
  EXPECT_NEAR(sampling.Estimate(c, root, registry, evidence).value, exact,
              0.05);
  HybridEngine hybrid(2, 4, 4000, GetParam() + 1);
  EXPECT_NEAR(hybrid.Estimate(c, root, registry, evidence).value, exact,
              0.05);
}

INSTANTIATE_TEST_SUITE_P(Seeds, EngineEquivalenceTest,
                         ::testing::Range(0, 10));

TEST(AutoEngineTest, PicksExhaustiveOnTinyCones) {
  Rng rng(7);
  GateId root;
  BoolCircuit c = RandomCircuit(rng, 6, 15, &root);
  EventRegistry registry = RandomRegistry(rng, 6);
  AutoEngine engine;
  EngineResult result = engine.Estimate(c, root, registry);
  EXPECT_STREQ(result.engine, "exhaustive");
  EXPECT_NEAR(result.value, ExhaustiveProbability(c, root, registry), 1e-9);
}

TEST(AutoEngineTest, PicksBddOnMediumCones) {
  // 14 events: past the exhaustive cutoff (10), inside the BDD one (18).
  Rng rng(8);
  EventRegistry registry = RandomRegistry(rng, 14);
  BoolCircuit c;
  std::vector<GateId> clauses;
  for (EventId e = 0; e + 1 < 14; e += 2) {
    clauses.push_back(c.AddAnd(c.AddVar(e), c.AddVar(e + 1)));
  }
  GateId root = c.AddOr(std::move(clauses));
  AutoEngine engine;
  EngineResult result = engine.Estimate(c, root, registry);
  EXPECT_STREQ(result.engine, "bdd");
  EXPECT_GT(result.stats.bdd_nodes, 0u);
  EXPECT_NEAR(result.value, ExhaustiveProbability(c, root, registry), 1e-9);
}

TEST(AutoEngineTest, PicksJunctionTreeOnWideEventNarrowWidthCones) {
  // 24 events in a chain of ORs: too many to enumerate or compile, but
  // the primal graph is a path — message passing territory.
  EventRegistry registry;
  BoolCircuit c;
  GateId root = c.AddVar(registry.Register("e0", 0.5));
  for (EventId e = 1; e < 24; ++e) {
    root = c.AddOr(root, c.AddVar(registry.Register(
                             "e" + std::to_string(e), 0.1)));
  }
  AutoEngine engine;
  EngineResult result = engine.Estimate(c, root, registry);
  EXPECT_STREQ(result.engine, "junction_tree");
  // P(OR of independents) = 1 - prod(1 - p_e).
  double expected = 1.0;
  for (EventId e = 0; e < 24; ++e) {
    expected *= 1.0 - registry.probability(e);
  }
  EXPECT_NEAR(result.value, 1.0 - expected, 1e-9);
}

TEST(AutoEngineTest, HandedOffDecompositionIsBitIdentical) {
  // The planner's width estimate is a JunctionTreeAnalysis that it hands
  // to the junction-tree plan it builds; the engine computing its own
  // decomposition runs the exact same Analyze+Build path, so the two
  // results must be bit-identical (not just within tolerance).
  AutoEngine::Limits limits;
  limits.exhaustive_max_events = 0;  // Force the planner past the small
  limits.bdd_max_events = 0;         // cones straight to message passing.
  for (int seed = 0; seed < 10; ++seed) {
    Rng rng(seed + 600);
    GateId root;
    BoolCircuit c = RandomCircuit(rng, 9, 45, &root);
    EventRegistry registry = RandomRegistry(rng, 9);
    AutoEngine auto_engine(limits);
    JunctionTreeEngine direct;
    EngineResult handed = auto_engine.Estimate(c, root, registry);
    EngineResult computed = direct.Estimate(c, root, registry);
    ASSERT_STREQ(handed.engine, "junction_tree") << "seed " << seed;
    EXPECT_EQ(handed.value, computed.value) << "seed " << seed;
    EXPECT_EQ(handed.stats.width, computed.stats.width);
    EXPECT_EQ(handed.stats.num_bags, computed.stats.num_bags);
    EXPECT_EQ(handed.stats.num_gates, computed.stats.num_gates);
  }
}

TEST(AutoEngineTest, WidthEstimateMatchesPlanAnalysis) {
  // The MinDegreeWidth probe must agree with the width the built plan
  // reports whenever the min-degree order is the one accepted.
  Rng rng(77);
  GateId root;
  BoolCircuit c = RandomCircuit(rng, 8, 40, &root);
  JunctionTreeAnalysis analysis = JunctionTreeAnalysis::Analyze(c, root);
  ASSERT_FALSE(analysis.trivial());
  const int estimate = analysis.MinDegreeWidth();
  JunctionTreePlan plan = JunctionTreePlan::Build(std::move(analysis));
  if (estimate <= 10) {  // Below the accept threshold no fallback runs.
    EXPECT_EQ(plan.width(), estimate);
  } else {
    EXPECT_LE(plan.width(), estimate);
  }
}

TEST(SeededJunctionTreeTest, MatchesGenericOrder) {
  for (int seed = 0; seed < 10; ++seed) {
    Rng rng(seed + 400);
    GateId root;
    BoolCircuit c = RandomCircuit(rng, 8, 40, &root);
    EventRegistry registry = RandomRegistry(rng, 8);
    EngineStats generic_stats, seeded_stats;
    double generic =
        JunctionTreeProbability(c, root, registry, &generic_stats);
    double seeded = JunctionTreeProbabilitySeeded(c, root, registry, {},
                                                  &seeded_stats);
    EXPECT_NEAR(seeded, generic, 1e-9);
    // The fallback caps the seeded width at the generic path's accept
    // threshold, so seeding can never make inference blow up.
    EXPECT_LE(seeded_stats.width, std::max(generic_stats.width, 10));
  }
}

// ---------------------------------------------------------------------------
// AutoEngine's per-root decision and plan memo
// ---------------------------------------------------------------------------

// A chain of ORs over `n` events: past the exhaustive and BDD cutoffs,
// a path-shaped primal graph, so the planner picks the junction tree.
BoolCircuit OrChain(EventRegistry& registry, uint32_t n, GateId* root) {
  BoolCircuit c;
  *root = c.AddVar(registry.Register("e0", 0.3));
  for (EventId e = 1; e < n; ++e) {
    *root = c.AddOr(*root, c.AddVar(registry.Register(
                               "e" + std::to_string(e), 0.05 + 0.01 * e)));
  }
  return c;
}

// P(OrChain | evidence) in closed form: 1 - Π (1 - p_e) over the
// unpinned events, or 1 when an event is pinned true.
double OrChainProbability(const EventRegistry& registry, uint32_t n,
                          const Evidence& evidence) {
  double none = 1.0;
  for (EventId e = 0; e < n; ++e) {
    auto pin = std::find_if(evidence.begin(), evidence.end(),
                            [&](const auto& lit) { return lit.first == e; });
    if (pin == evidence.end()) {
      none *= 1.0 - registry.probability(e);
    } else if (pin->second) {
      return 1.0;
    }
  }
  return 1.0 - none;
}

TEST(AutoEngineMemoTest, RepeatsBuildOnePlanAndAnswerBitIdentically) {
  EventRegistry registry;
  GateId root;
  const BoolCircuit c = OrChain(registry, 24, &root);
  const std::vector<Evidence> asks = {
      {}, {{3, true}}, {{3, false}, {7, true}}, {{20, false}}};
  AutoEngine engine;
  std::vector<double> first;
  for (const Evidence& evidence : asks) {
    EngineResult r = engine.Estimate(c, root, registry, evidence);
    ASSERT_STREQ(r.engine, "junction_tree");
    EXPECT_NEAR(r.value, OrChainProbability(registry, 24, evidence), 1e-12);
    first.push_back(r.value);
  }
  EXPECT_EQ(engine.plans_built(), 1u);
  for (int round = 0; round < 3; ++round) {
    for (size_t i = 0; i < asks.size(); ++i) {
      EXPECT_EQ(engine.Estimate(c, root, registry, asks[i]).value, first[i]);
    }
  }
  EXPECT_EQ(engine.plans_built(), 1u);
  EXPECT_GT(engine.kept_plan_cells(), 0.0);
  EXPECT_LE(engine.kept_plan_cells(), AutoEngine::kMaxPlanCells);

  // The governed path executes the kept plan too.
  QueryBudget budget;
  budget.max_table_cells = 1u << 20;
  for (size_t i = 0; i < asks.size(); ++i) {
    EngineResult r = engine.Estimate(c, root, registry, asks[i], budget);
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r.value, first[i]);
  }
  EXPECT_EQ(engine.plans_built(), 1u);
}

TEST(AutoEngineMemoTest, UnconditionedAskPicksTheFreshEngine) {
  // Whatever a root was first asked under, its unconditioned answer
  // comes from the engine a fresh planner picks, with the same value.
  std::set<std::string> engines;
  for (int seed = 0; seed < 12; ++seed) {
    // An OR of pairwise ANDs reading every event: 6 .. 21 cone events,
    // so the exhaustive, BDD and junction-tree rungs all occur.
    Rng rng(seed + 900);
    const uint32_t num_events = 6 + 3 * (seed % 6);
    EventRegistry registry = RandomRegistry(rng, num_events);
    BoolCircuit c;
    std::vector<GateId> clauses;
    for (EventId e = 0; e < num_events; ++e) {
      const EventId other = static_cast<EventId>(rng.UniformInt(num_events));
      clauses.push_back(c.AddAnd(c.AddVar(e), c.AddVar(other)));
    }
    const GateId root = c.AddOr(std::move(clauses));
    AutoEngine fresh;
    const EngineResult want = fresh.Estimate(c, root, registry);
    AutoEngine memoised;
    const Evidence evidence = {{0, seed % 2 == 0}};
    EngineResult conditioned = memoised.Estimate(c, root, registry, evidence);
    EXPECT_NEAR(conditioned.value,
                JunctionTreeProbabilityWithEvidence(c, root, registry,
                                                    evidence),
                1e-9)
        << "seed " << seed;
    const EngineResult got = memoised.Estimate(c, root, registry);
    EXPECT_STREQ(got.engine, want.engine) << "seed " << seed;
    EXPECT_EQ(got.value, want.value) << "seed " << seed;
    engines.insert(want.engine);
  }
  EXPECT_GE(engines.size(), 3u);  // Exhaustive, BDD and junction tree.
}

TEST(AutoEngineMemoTest, BudgetRefusedPlanIsNotKept) {
  EventRegistry registry;
  GateId root;
  const BoolCircuit c = OrChain(registry, 24, &root);
  const double cells =
      JunctionTreePlan::Build(JunctionTreeAnalysis::Analyze(c, root))
          .total_cells();
  AutoEngine engine;
  QueryBudget tight;
  tight.max_table_cells = static_cast<uint64_t>(cells) - 1;
  EngineResult degraded = engine.Estimate(c, root, registry, {}, tight);
  EXPECT_STRNE(degraded.engine, "junction_tree");
  EXPECT_GE(degraded.stats.degradations, 1u);
  EXPECT_EQ(engine.kept_plan_cells(), 0.0);

  const EngineResult exact = engine.Estimate(c, root, registry);
  ASSERT_STREQ(exact.engine, "junction_tree");
  EXPECT_EQ(engine.kept_plan_cells(), cells);
  const uint64_t built = engine.plans_built();
  // A kept plan the caller's budget cannot afford still degrades.
  EXPECT_STRNE(engine.Estimate(c, root, registry, {}, tight).engine,
               "junction_tree");
  EXPECT_EQ(engine.plans_built(), built);
}

TEST(AutoEngineMemoTest, KeptPlansStayWithinTheCellBound) {
  const workloads::InstanceSpec spec =
      *workloads::ParseInstanceSpec("ladder:48");
  TidInstance tid = workloads::MakeInstance(spec);
  QuerySession session = QuerySession::FromCInstance(tid.ToPcInstance());
  const auto [source, target] = workloads::CanonicalEndpoints(spec);
  std::vector<GateId> roots;
  double total = 0;
  for (Value s = source; s < source + 4; ++s) {
    for (Value t = target - 1; t <= target; ++t) {
      roots.push_back(session.ReachabilityLineage(0, s, t));
      total += JunctionTreePlan::Build(session.pcc().circuit(), roots.back())
                   .total_cells();
    }
  }
  ASSERT_GT(total, AutoEngine::kMaxPlanCells);  // Eviction must happen.

  AutoEngine engine;
  std::vector<double> first;
  for (GateId root : roots) {
    EngineResult r = engine.Estimate(session.pcc().circuit(), root,
                                      session.pcc().events());
    ASSERT_STREQ(r.engine, "junction_tree");
    first.push_back(r.value);
    EXPECT_LE(engine.kept_plan_cells(), AutoEngine::kMaxPlanCells);
  }
  EXPECT_EQ(engine.plans_built(), roots.size());
  // The least recently used root was evicted: it rebuilds, and answers
  // bit-identically.
  EXPECT_EQ(engine.Estimate(session.pcc().circuit(), roots[0],
                            session.pcc().events())
                .value,
            first[0]);
  EXPECT_EQ(engine.plans_built(), roots.size() + 1);
  EXPECT_LE(engine.kept_plan_cells(), AutoEngine::kMaxPlanCells);
  // The most recently used one is still kept.
  EXPECT_EQ(engine.Estimate(session.pcc().circuit(), roots.back(),
                            session.pcc().events())
                .value,
            first.back());
  EXPECT_EQ(engine.plans_built(), roots.size() + 1);
}

TEST(AutoEngineMemoTest, NewCircuitAtARecycledAddressIsAnsweredAfresh) {
  // One engine over circuits built in a loop, each at the same stack
  // address with the same root id and root kind but a different
  // function: a memo bound to the address would reuse a stale plan.
  AutoEngine::Limits limits;
  limits.exhaustive_max_events = 0;  // Straight to the junction tree,
  limits.bdd_max_events = 0;         // whose plans the memo keeps.
  AutoEngine engine(limits);
  EventRegistry registry;
  for (EventId e = 0; e < 12; ++e) {
    registry.Register("e" + std::to_string(e), 0.1 + 0.07 * e);
  }
  GateId first_root = kInvalidGate;
  for (int i = 0; i < 8; ++i) {
    BoolCircuit c;
    std::vector<GateId> vars;
    for (EventId e = 0; e < 12; ++e) vars.push_back(c.AddVar(e));
    GateId acc = vars[0];
    for (EventId e = 1; e < 11; ++e) {
      const GateId negated = c.AddNot(vars[e]);
      acc = ((i >> (e % 3)) & 1) != 0 ? c.AddAnd(acc, negated)
                                      : c.AddOr(acc, negated);
    }
    const GateId root = c.AddOr(acc, vars[11]);
    if (first_root == kInvalidGate) first_root = root;
    ASSERT_EQ(root, first_root);
    EngineResult r = engine.Estimate(c, root, registry);
    EXPECT_STREQ(r.engine, "junction_tree");
    EXPECT_NEAR(r.value, ExhaustiveProbability(c, root, registry), 1e-12)
        << "circuit " << i;
  }
  EXPECT_EQ(engine.plans_built(), 8u);
}

}  // namespace
}  // namespace tud
