// serve: prepared reachability questions on a ladder, lineages built
// and plans prewarmed in set-up. One client thread drives a
// ServingSession through a closed loop with a fixed window of
// outstanding requests, on a zipf-skewed mix; a share of the
// requests carries an observed fact, another share a deadline far above
// any latency (the governed path, never tripped). Each round sets up a
// fresh session, so lineage DP and plan builds land in set-up only.

#include <algorithm>
#include <cmath>
#include <future>
#include <map>
#include <string>
#include <vector>

#include "common.h"
#include "inference/junction_tree.h"
#include "oracle.h"
#include "queries/query_session.h"
#include "serving/server.h"
#include "uncertain/c_instance.h"
#include "workloads.h"
#include "workloads/workloads.h"

namespace perfbench {
namespace {

using tud::GateId;

constexpr uint32_t kLadderRungs = 48;
constexpr uint32_t kQuestions = 64;
constexpr size_t kRequestsPerRound = 8000;
/// One worker, two requests outstanding: the worker always has the next
/// request queued while the client takes the previous answer. With two
/// workers the virtual machine's steal grew with the process's CPU use
/// (4–20% of machine time against 4–5% with one), and the p90 and the
/// throughput spread past 25% between runs.
constexpr unsigned kWorkers = 1;
constexpr size_t kWindow = 2;
/// Requests per statistics window (see Windows in common.h).
constexpr size_t kRequestsPerWindow = 1000;
constexpr double kTheta = 0.99;
constexpr double kObservedShare = 0.2;
constexpr double kDeadlineShare = 0.2;
constexpr double kDeadlineMs = 60000;
constexpr double kTolerance = 1e-9;
constexpr int kProbeReps = 21;
constexpr uint64_t kShapeSeed = 8;

struct Question {
  uint32_t s = 0, t = 0;
  uint32_t fact = 0;  ///< The fact an observed request observes.
};

struct Request {
  uint32_t question = 0;
  int observed = -1;  ///< -1: none; 0/1: fact absent/present.
  bool deadline = false;
};

struct Inputs {
  tud::TidInstance ladder{tud::workloads::EdgeSchema()};
  LadderModel model{kLadderRungs};
  std::vector<Question> questions;
  std::vector<Request> requests;
};

Inputs MakeInputs(uint64_t seed) {
  Inputs in;
  tud::Rng rng(seed * 0x9E3779B97F4A7C15ull + 2);
  in.ladder = tud::workloads::LadderTid(rng, kLadderRungs);
  for (tud::FactId f = 0; f < in.ladder.NumFacts(); ++f) {
    const auto& args = in.ladder.instance().fact(f).args;
    in.model.AddFact(f, args[0], args[1], in.ladder.probability(f));
  }
  // 8 sources in the first four levels x 8 targets in the last four.
  for (uint32_t i = 0; i < kQuestions; ++i) {
    in.questions.push_back(Question{
        i / 8, 2 * kLadderRungs - 1 - i % 8,
        static_cast<uint32_t>(rng.UniformInt(in.ladder.NumFacts()))});
  }
  tud::workloads::ZipfianGenerator zipf(kQuestions, kTheta);
  // Popularity ranks are fixed; --seed draws the probabilities, the
  // observed facts and the request sequence.
  tud::Rng shape(kShapeSeed);
  const std::vector<uint32_t> rank_to_question = shape.Permutation(kQuestions);
  for (size_t i = 0; i < kRequestsPerRound; ++i) {
    Request r;
    r.question = rank_to_question[zipf.Next(rng)];
    if (rng.Bernoulli(kObservedShare)) r.observed = rng.Bernoulli(0.5);
    r.deadline = rng.Bernoulli(kDeadlineShare);
    in.requests.push_back(r);
  }
  return in;
}

tud::Evidence EvidenceOf(const Question& q, int observed) {
  if (observed < 0) return {};
  return {{q.fact, observed == 1}};
}

struct Answer {
  double value = 0;
  bool ok = false;
  size_t bags = 0;
  double latency_us = 0;
};

}  // namespace

void RunServe(const Options& options, Tracer& tracer, Output* out) {
  const Inputs in = MakeInputs(options.seed);
  std::vector<double> setup_s;
  Windows windows[2];  // [traced]
  std::vector<double> gates_added, circuit_gates, bags, cells, plans_built,
      execute_us, dispatch_us, queue_us, tasks, steals;
  int width = 0;
  uint64_t request_id = 0;

  RunRounds(options, tracer, [&](bool traced, int) {
    const Clock::time_point s0 = Clock::now();
    tud::QuerySession session =
        tud::QuerySession::FromCInstance(in.ladder.ToPcInstance());
    {
      Tracer::Scope span(tracer, "treedec.decompose");
      width = session.Decomposition().width;
    }
    std::vector<GateId> roots;
    for (const Question& q : in.questions) {
      const size_t before = session.pcc().circuit().NumGates();
      Tracer::Scope span(tracer, "queries.lineage");
      roots.push_back(session.ReachabilityLineage(0, q.s, q.t));
      if (traced)
        gates_added.push_back(
            static_cast<double>(session.pcc().circuit().NumGates() - before));
    }
    tud::serving::ServingOptions serving_options;
    serving_options.num_threads = kWorkers;
    tud::serving::ServingSession serving(
        session.pcc().circuit(), session.pcc().events(), serving_options);
    for (GateId root : roots) {
      Tracer::Scope span(tracer, "inference.build");
      serving.Prewarm(root);
    }
    setup_s.push_back(SecondsBetween(s0, Clock::now()));

    // The closed loop: at most kWindow requests outstanding; the next one
    // is sent when the oldest answer has been observed.
    std::vector<tud::Evidence> evidence(in.requests.size());
    for (size_t i = 0; i < in.requests.size(); ++i)
      evidence[i] = EvidenceOf(in.questions[in.requests[i].question],
                               in.requests[i].observed);
    tud::serving::QueryOptions governed;
    governed.deadline_ms = kDeadlineMs;
    std::vector<Answer> answers(in.requests.size());
    std::vector<std::future<tud::EngineResult>> futures(in.requests.size());
    std::vector<int64_t> sent(in.requests.size());
    std::vector<uint64_t> steal;  // At each window's first send, and the end.
    const auto before = serving.scheduler().stats();
    auto observe = [&](size_t i) {
      tud::EngineResult r;
      bool threw = false;
      {
        Tracer::Scope span(tracer, "serving.wait", request_id + i);
        try {
          r = futures[i].get();
        } catch (const std::exception&) {
          threw = true;
        }
      }
      const int64_t now = tracer.Now();
      tracer.Record("serving.request", sent[i], now, request_id + i);
      answers[i] = Answer{r.value, !threw && r.ok(), r.stats.bags_visited,
                          (now - sent[i]) * 1e-3};
    };
    for (size_t i = 0; i < in.requests.size(); ++i) {
      if (i >= kWindow) observe(i - kWindow);
      const Request& r = in.requests[i];
      if (i % kRequestsPerWindow == 0) steal.push_back(StealTicks());
      sent[i] = tracer.Now();
      Tracer::Scope span(tracer, "serving.submit", request_id + i);
      futures[i] = r.deadline ? serving.Submit(roots[r.question],
                                                evidence[i], governed)
                              : serving.Submit(roots[r.question], evidence[i]);
    }
    for (size_t i = in.requests.size() >= kWindow
                        ? in.requests.size() - kWindow
                        : 0;
         i < in.requests.size(); ++i)
      observe(i);
    const int64_t end = tracer.Now();
    steal.push_back(StealTicks());
    const auto after = serving.scheduler().stats();
    request_id += in.requests.size();
    out->attempted += in.requests.size();

    // Checks, untimed and untraced: each answer bit-identical to a
    // sequential evaluation of the same question, which must match the
    // oracle and satisfy total probability and monotonicity.
    tracer.set_on(false);
    tud::JunctionTreeEngine sequential(/*seed_topological=*/false,
                                       /*cache_plans=*/true);
    std::map<std::pair<uint32_t, int>, double> reference;
    auto reference_of = [&](uint32_t q, int observed) {
      auto [it, fresh] = reference.try_emplace({q, observed}, 0.0);
      if (fresh) {
        it->second = sequential
                         .Estimate(session.pcc().circuit(), roots[q],
                                   session.pcc().events(),
                                   EvidenceOf(in.questions[q], observed))
                         .value;
        const double want = in.model.Reachability(
            in.questions[q].s, in.questions[q].t,
            observed < 0 ? Observations{}
                         : Observations{{in.questions[q].fact, observed == 1}});
        if (std::fabs(it->second - want) > kTolerance)
          out->Error("serve question " + std::to_string(q) +
                     ": sequential answer != oracle");
      }
      return it->second;
    };
    for (size_t i = 0; i < answers.size(); ++i) {
      const Request& r = in.requests[i];
      if (!answers[i].ok) {
        ++out->failed;
        continue;
      }
      if (answers[i].value != reference_of(r.question, r.observed))
        out->Error("serve request " + std::to_string(i) +
                   ": not bit-identical to sequential evaluation");
      if (r.observed < 0) continue;
      const double p = in.ladder.probability(in.questions[r.question].fact);
      const double none = reference_of(r.question, -1);
      const double absent = reference_of(r.question, 0);
      const double present = reference_of(r.question, 1);
      if (std::fabs(none - (p * present + (1 - p) * absent)) > kTolerance ||
          absent > none + 1e-12 || none > present + 1e-12)
        out->Error("serve question " + std::to_string(r.question) +
                   ": total probability or monotonicity fails");
    }
    // A window runs from its first request's send to the next window's.
    for (size_t begin = 0; begin < answers.size();
         begin += kRequestsPerWindow) {
      const size_t stop = std::min(begin + kRequestsPerWindow, answers.size());
      std::vector<double> latency_ms;
      for (size_t i = begin; i < stop; ++i)
        if (answers[i].ok) latency_ms.push_back(answers[i].latency_us * 1e-3);
      const int64_t until = stop < answers.size() ? sent[stop] : end;
      const size_t w = begin / kRequestsPerWindow;
      windows[traced].Add(latency_ms, (until - sent[begin]) * 1e-9, steal[w],
                          steal[w + 1]);
    }
    if (!traced) return;
    tracer.set_on(true);

    // Layer probes, untimed: each prewarmed plan's Execute called
    // directly, and the synchronous Evaluate of the same root.
    tud::PlanScratch scratch;
    std::map<uint32_t, double> evaluate_us;
    for (uint32_t q = 0; q < kQuestions; ++q) {
      const tud::JunctionTreePlan* plan =
          serving.plan_cache().Lookup(roots[q]);
      cells.push_back(plan->total_cells());
      std::vector<double> exec, eval;
      for (int rep = 0; rep < kProbeReps; ++rep) {
        Clock::time_point t0 = Clock::now();
        {
          Tracer::Scope span(tracer, "inference.execute");
          volatile double sink =
              plan->Execute(session.pcc().events(), {}, &scratch);
          (void)sink;
        }
        exec.push_back(SecondsBetween(t0, Clock::now()) * 1e6);
        t0 = Clock::now();
        {
          Tracer::Scope span(tracer, "serving.evaluate");
          volatile double sink = serving.Evaluate(roots[q]).value;
          (void)sink;
        }
        eval.push_back(SecondsBetween(t0, Clock::now()) * 1e6);
      }
      execute_us.push_back(Median(exec));
      dispatch_us.push_back(Median(eval) - Median(exec));
      evaluate_us[q] = Median(eval);
    }
    for (size_t i = 0; i < answers.size(); ++i) {
      queue_us.push_back(answers[i].latency_us -
                         evaluate_us[in.requests[i].question]);
      bags.push_back(static_cast<double>(answers[i].bags));
    }
    tasks.push_back(static_cast<double>(after.executed - before.executed) /
                    static_cast<double>(answers.size()));
    steals.push_back(static_cast<double>(after.stolen - before.stolen));
    plans_built.push_back(
        static_cast<double>(serving.plan_cache().builds()));
    circuit_gates.push_back(
        static_cast<double>(session.pcc().circuit().NumGates()));
  });

  out->end_to_end["setup_s"] = Median(setup_s);
  windows[0].Report(out);

  auto& layer = out->per_layer;
  layer["treedec.decompose_ms"] =
      Median(tracer.DurationsUs("treedec.decompose")) * 1e-3;
  layer["treedec.width"] = width;
  layer["queries.lineage_us"] = Median(tracer.DurationsUs("queries.lineage"));
  layer["queries.gates_added_per_lineage"] = Mean(gates_added);
  layer["circuits.gates"] = Median(circuit_gates);
  layer["inference.build_ms"] =
      Median(tracer.DurationsUs("inference.build")) * 1e-3;
  layer["inference.plans_built"] = Median(plans_built);
  layer["inference.plan_cells"] = Median(cells);
  layer["inference.execute_us"] = Median(execute_us);
  layer["inference.dispatch_us"] = Median(dispatch_us);
  layer["inference.bags_visited_per_answer"] = Mean(bags);
  layer["serving.queue_wait_us"] = Median(queue_us);
  layer["serving.tasks_per_answer"] = Median(tasks);
  layer["serving.steals"] = Median(steals);
  layer["trace.overhead_pct"] =
      OverheadPct(windows[1].MedianP50(), windows[0].MedianP50());
}

}  // namespace perfbench
