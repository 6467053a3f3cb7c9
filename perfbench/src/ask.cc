// ask: ad hoc questions, each given by its definition, from one client
// against two static instances through the session's default engine
// (AutoEngine): s-t reachability on a ladder, and the RST path query
// with a bound first variable on an RST partial k-tree. Questions are
// drawn zipf-skewed from a fixed pool, so first asks and repeats both
// occur; a share is conditioned on one observed fact. Every third
// question is a reachability one: with the costlier family in a fixed
// share, the median lands inside the RST questions and the 90th
// percentile inside the reachability ones, whatever the seed. Each
// round opens fresh sessions, so every round has the same mix of first
// asks and repeats.

#include <algorithm>
#include <cmath>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "common.h"
#include "inference/junction_tree.h"
#include "oracle.h"
#include "queries/query_session.h"
#include "uncertain/c_instance.h"
#include "workloads.h"
#include "workloads/workloads.h"

namespace perfbench {
namespace {

using tud::GateId;

constexpr uint32_t kLadderRungs = 48;
constexpr uint32_t kKTreeVertices = 480;
constexpr uint32_t kKTreeWidth = 3;
/// The instances, the pool and each question's popularity rank are
/// fixed; --seed draws the probabilities, the observed facts and the
/// question sequence.
constexpr uint64_t kShapeSeed = 8;
constexpr uint32_t kPairs = 32;
constexpr uint32_t kConstants = 32;
constexpr size_t kQuestionsPerRound = 300;
constexpr double kTheta = 0.99;
constexpr double kObservedShare = 0.25;
constexpr double kTolerance = 1e-9;
constexpr int kProbeReps = 11;

struct Item {
  bool rst = false;     ///< false: ladder reachability a -> b.
  uint32_t a = 0;       ///< Source, or the bound constant.
  uint32_t b = 0;       ///< Target.
  uint32_t fact = 0;    ///< The fact a conditioned ask observes.
};

struct Draw {
  uint32_t item = 0;
  int observed = -1;  ///< -1: unconditioned; 0/1: fact absent/present.
};

struct Instances {
  tud::TidInstance ladder{tud::workloads::EdgeSchema()};
  tud::TidInstance ktree{tud::workloads::RstSchema()};
  LadderModel model{kLadderRungs};
  std::vector<Item> items;
  std::vector<Draw> draws;
};

Instances MakeInputs(uint64_t seed) {
  Instances in;
  tud::Rng rng(seed * 0x9E3779B97F4A7C15ull + 1);
  in.ladder = tud::workloads::LadderTid(rng, kLadderRungs);
  for (tud::FactId f = 0; f < in.ladder.NumFacts(); ++f) {
    const auto& args = in.ladder.instance().fact(f).args;
    in.model.AddFact(f, args[0], args[1], in.ladder.probability(f));
  }
  // The k-tree's facts come from the shape seed; their probabilities
  // are redrawn from --seed (same distribution as MakeKTreeTid).
  tud::Rng shape(kShapeSeed);
  const tud::TidInstance shaped =
      tud::workloads::MakeKTreeTid(shape, kKTreeVertices, kKTreeWidth);
  for (const tud::Fact& fact : shaped.instance().facts())
    in.ktree.AddFact(fact.relation, fact.args, 0.2 + 0.6 * rng.UniformDouble());

  // Pool: reachability pairs between the first and last four levels,
  // and constants with at least one R(c) and one S(c, y) fact.
  std::vector<Item> pairs;
  for (uint32_t s = 0; s < 8; ++s)
    for (uint32_t t = 2 * kLadderRungs - 8; t < 2 * kLadderRungs; ++t)
      pairs.push_back(Item{false, s, t, 0});
  shape.Shuffle(pairs);
  pairs.resize(kPairs);
  std::vector<uint32_t> constants;
  const tud::Instance& kt = in.ktree.instance();
  for (uint32_t c = 0; c < kKTreeVertices; ++c) {
    bool r = false, s = false;
    for (const tud::Fact& fact : kt.facts()) {
      r = r || (fact.relation == 0 && fact.args[0] == c);
      s = s || (fact.relation == 1 && fact.args[0] == c);
    }
    if (r && s) constants.push_back(c);
  }
  shape.Shuffle(constants);
  constants.resize(std::min<size_t>(constants.size(), kConstants));
  for (Item& item : pairs) {
    item.fact = static_cast<uint32_t>(rng.UniformInt(in.ladder.NumFacts()));
    in.items.push_back(item);
  }
  for (uint32_t c : constants) {
    // The observed fact is one the question reads: R(c), S(c, y) or T(y).
    std::set<tud::Value> ys;
    for (const tud::Fact& fact : kt.facts())
      if (fact.relation == 1 && fact.args[0] == c) ys.insert(fact.args[1]);
    std::vector<uint32_t> relevant;
    for (tud::FactId f = 0; f < kt.NumFacts(); ++f) {
      const tud::Fact& fact = kt.fact(f);
      if (fact.relation == 2 ? ys.count(fact.args[0]) > 0 : fact.args[0] == c)
        relevant.push_back(f);
    }
    in.items.push_back(
        Item{true, c, 0, relevant[rng.UniformInt(relevant.size())]});
  }

  // Items [0, kPairs) are reachability pairs, the rest RST constants.
  const uint32_t family_size[2] = {kPairs,
                                   static_cast<uint32_t>(constants.size())};
  tud::workloads::ZipfianGenerator zipf[2] = {
      tud::workloads::ZipfianGenerator(family_size[0], kTheta),
      tud::workloads::ZipfianGenerator(family_size[1], kTheta)};
  const std::vector<uint32_t> rank_to_item[2] = {
      shape.Permutation(family_size[0]), shape.Permutation(family_size[1])};
  for (size_t i = 0; i < kQuestionsPerRound; ++i) {
    const int family = i % 3 == 0 ? 0 : 1;
    Draw d;
    d.item = family * kPairs + rank_to_item[family][zipf[family].Next(rng)];
    if (rng.Bernoulli(kObservedShare)) d.observed = rng.Bernoulli(0.5);
    in.draws.push_back(d);
  }
  return in;
}

double Expected(const Instances& in, const Item& item, int observed) {
  Observations obs;
  if (observed >= 0) obs.push_back({item.fact, observed == 1});
  return item.rst ? BoundRstProbability(in.ktree, item.a, obs)
                  : in.model.Reachability(item.a, item.b, obs);
}

double FactProbability(const Instances& in, const Item& item) {
  return item.rst ? in.ktree.probability(item.fact)
                  : in.ladder.probability(item.fact);
}

/// One question: its lineage from its definition, then its probability.
struct Asked {
  tud::EngineResult result;
  GateId root = tud::kInvalidGate;
  double latency_ms = 0;
  double estimate_us = 0;
  size_t gates_added = 0;
};

Asked Ask(tud::QuerySession& session, const Item& item, int observed,
          Tracer& tracer, uint64_t request) {
  Asked a;
  const Clock::time_point t0 = Clock::now();
  Tracer::Scope question(tracer, "ask.question", request);
  const size_t gates = session.pcc().circuit().NumGates();
  {
    Tracer::Scope span(tracer, "queries.lineage", request);
    if (item.rst) {
      // ∃y R(c) S(c, y) T(y), written with y as the only variable:
      // BindVariables(RstPath(...)) keeps the bound variable's id, and
      // CqLineage aborts on a variable that occurs in no atom.
      tud::ConjunctiveQuery bound;
      bound.AddAtom(0, {tud::Term::C(item.a)});
      bound.AddAtom(1, {tud::Term::C(item.a), tud::Term::V(0)});
      bound.AddAtom(2, {tud::Term::V(0)});
      a.root = session.CqLineage(bound);
    } else {
      a.root = session.ReachabilityLineage(0, item.a, item.b);
    }
  }
  a.gates_added = session.pcc().circuit().NumGates() - gates;
  tud::Evidence evidence;
  if (observed >= 0) evidence.push_back({item.fact, observed == 1});
  const Clock::time_point t1 = Clock::now();
  {
    Tracer::Scope span(tracer, "inference.estimate", request);
    a.result = session.Probability(a.root, evidence);
  }
  const Clock::time_point t2 = Clock::now();
  a.latency_ms = SecondsBetween(t0, t2) * 1e3;
  a.estimate_us = SecondsBetween(t1, t2) * 1e6;
  return a;
}

}  // namespace

void RunAsk(const Options& options, Tracer& tracer, Output* out) {
  const Instances in = MakeInputs(options.seed);
  std::vector<double> setup_s;
  Windows windows[2];  // [traced]
  // Per-layer samples, from traced rounds.
  std::vector<double> gates_added, bags, build_ms, cells, execute_us,
      dispatch_us, circuit_gates, jt_answers, decompose_ms;
  int width = 0;
  uint64_t request = 0;

  RunRounds(options, tracer, [&](bool traced, int) {
    const Clock::time_point s0 = Clock::now();
    tud::QuerySession ladder =
        tud::QuerySession::FromCInstance(in.ladder.ToPcInstance());
    tud::QuerySession ktree =
        tud::QuerySession::FromCInstance(in.ktree.ToPcInstance());
    auto session_of = [&](const Item& item) -> tud::QuerySession& {
      return item.rst ? ktree : ladder;
    };
    const Clock::time_point d0 = Clock::now();
    for (tud::QuerySession* s : {&ladder, &ktree}) {
      Tracer::Scope span(tracer, "treedec.decompose");
      width = std::max(width, s->Decomposition().width);
    }
    const Clock::time_point d1 = Clock::now();
    if (traced) decompose_ms.push_back(SecondsBetween(d0, d1) * 1e3);
    setup_s.push_back(SecondsBetween(s0, d1));

    std::vector<Asked> asked;
    asked.reserve(in.draws.size());
    const uint64_t steal0 = StealTicks();
    const Clock::time_point q0 = Clock::now();
    for (const Draw& d : in.draws) {
      const Item& item = in.items[d.item];
      asked.push_back(Ask(session_of(item), item, d.observed, tracer,
                          ++request));
    }
    const double timed_s = SecondsBetween(q0, Clock::now());
    const uint64_t steal1 = StealTicks();
    out->attempted += in.draws.size();

    // Checks, untimed and untraced: every answer against the oracle;
    // every observed question against total probability and
    // monotonicity, on the engine's own answers (the cases the round did
    // not ask are asked now).
    tracer.set_on(false);
    std::map<std::pair<uint32_t, int>, double> engine;
    auto check = [&](uint32_t item, int observed,
                     const tud::EngineResult& r) {
      const double want = Expected(in, in.items[item], observed);
      if (std::fabs(r.value - want) > kTolerance || r.error_bound != 0) {
        out->Error("ask item " + std::to_string(item) + " observed " +
                   std::to_string(observed) + ": " + std::to_string(r.value) +
                   " (" + r.engine + ") != oracle " + std::to_string(want));
      }
      engine[{item, observed}] = r.value;
    };
    std::vector<double> latency_ms;
    for (size_t i = 0; i < asked.size(); ++i) {
      if (!asked[i].result.ok()) {
        ++out->failed;
        continue;
      }
      latency_ms.push_back(asked[i].latency_ms);
      check(in.draws[i].item, in.draws[i].observed, asked[i].result);
    }
    windows[traced].Add(latency_ms, timed_s, steal0, steal1);
    std::set<uint32_t> observed_items;
    for (const Draw& d : in.draws)
      if (d.observed >= 0) observed_items.insert(d.item);
    for (uint32_t id : observed_items) {
      const Item& item = in.items[id];
      for (int o = -1; o <= 1; ++o) {
        if (!engine.count({id, o}))
          check(id, o, Ask(session_of(item), item, o, tracer, 0).result);
      }
      const double none = engine[{id, -1}], absent = engine[{id, 0}],
                   present = engine[{id, 1}];
      const double p = FactProbability(in, item);
      if (std::fabs(none - (p * present + (1 - p) * absent)) > kTolerance)
        out->Error("ask item " + std::to_string(id) +
                   ": total probability fails");
      if (absent > none + 1e-12 || none > present + 1e-12)
        out->Error("ask item " + std::to_string(id) +
                   ": not monotone in the observed fact");
    }
    if (!traced) return;
    tracer.set_on(true);

    // Layer probes, untimed: for each distinct root AutoEngine answered
    // by message passing, the plan it built (built again here) and that
    // plan's Execute called directly.
    std::map<GateId, double> execute_by_root;
    double jt = 0;
    for (size_t i = 0; i < asked.size(); ++i) {
      tud::QuerySession& session = session_of(in.items[in.draws[i].item]);
      gates_added.push_back(static_cast<double>(asked[i].gates_added));
      bags.push_back(static_cast<double>(asked[i].result.stats.bags_visited));
      if (std::string(asked[i].result.engine) != "junction_tree") continue;
      ++jt;
      auto [it, fresh] = execute_by_root.try_emplace(asked[i].root, 0.0);
      if (fresh) {
        const Clock::time_point b0 = Clock::now();
        tud::JunctionTreePlan plan = [&] {
          Tracer::Scope span(tracer, "inference.build");
          return tud::JunctionTreePlan::Build(session.pcc().circuit(),
                                              asked[i].root);
        }();
        build_ms.push_back(SecondsBetween(b0, Clock::now()) * 1e3);
        cells.push_back(plan.total_cells());
        std::vector<double> runs;
        for (int rep = 0; rep < kProbeReps; ++rep) {
          Tracer::Scope span(tracer, "inference.execute");
          const Clock::time_point e0 = Clock::now();
          volatile double sink = plan.Execute(session.pcc().events());
          (void)sink;
          runs.push_back(SecondsBetween(e0, Clock::now()) * 1e6);
        }
        it->second = Median(runs);
        execute_us.push_back(it->second);
      }
      dispatch_us.push_back(asked[i].estimate_us - it->second);
    }
    jt_answers.push_back(jt);
    circuit_gates.push_back(static_cast<double>(
        ladder.pcc().circuit().NumGates() + ktree.pcc().circuit().NumGates()));
  });

  out->end_to_end["setup_s"] = Median(setup_s);
  windows[0].Report(out);

  auto& layer = out->per_layer;
  layer["treedec.decompose_ms"] = Median(decompose_ms);  // Both instances.
  layer["treedec.width"] = width;
  layer["queries.lineage_us"] = Median(tracer.DurationsUs("queries.lineage"));
  layer["queries.gates_added_per_lineage"] = Mean(gates_added);
  layer["circuits.gates"] = Median(circuit_gates);
  layer["inference.build_ms"] = Median(build_ms);
  layer["inference.plans_built"] = Median(jt_answers);
  layer["inference.plan_cells"] = Median(cells);
  layer["inference.execute_us"] = Median(execute_us);
  layer["inference.dispatch_us"] = Median(dispatch_us);
  layer["inference.bags_visited_per_answer"] = Mean(bags);
  layer["trace.overhead_pct"] =
      OverheadPct(windows[1].MedianP50(), windows[0].MedianP50());
}

}  // namespace perfbench
