// maintain: a ladder loaded fact by fact through DurableSession (WAL
// without per-append fsync; checkpoints fsync) with a few registered
// reachability questions, then a stream of mutations: mostly
// probability updates, plus inserts of parallel rails and rungs and
// deletes. After each mutation every registered question is requeried;
// every few mutations an epoch is published and answered by an
// EpochedServingSession reader; checkpoints run periodically; the round
// ends with a Recover from the directory left behind. Each round starts
// from an empty directory, so every round does the same work. The shape
// of the stream (which facts change, where facts are inserted, in which
// order) is fixed; --seed draws every probability.

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include <unistd.h>

#include "common.h"
#include "incremental/epoch.h"
#include "inference/junction_tree.h"
#include "oracle.h"
#include "persist/durable_session.h"
#include "queries/query_session.h"
#include "serving/server.h"
#include "workloads.h"
#include "workloads/workloads.h"

namespace perfbench {
namespace {

namespace fs = std::filesystem;
using tud::EngineStatus;

constexpr uint32_t kLadderRungs = 64;
constexpr uint32_t kUpdates = 160;
constexpr uint32_t kInserts = 30;
constexpr uint32_t kDeletes = 10;
constexpr uint32_t kPublishEvery = 8;
constexpr uint32_t kCheckpointEvery = 80;
constexpr double kTolerance = 1e-9;
constexpr int kProbeReps = 21;
constexpr uint64_t kShapeSeed = 8;

struct Question {
  uint32_t s, t;
};
const Question kQuestions[] = {{0, 2 * kLadderRungs - 2},
                               {1, 2 * kLadderRungs - 1},
                               {0, 2 * kLadderRungs - 1},
                               {3, 2 * kLadderRungs - 4}};
constexpr size_t kNumQuestions = std::size(kQuestions);

struct Mutation {
  enum Kind { kUpdate, kInsert, kDelete } kind = kUpdate;
  uint32_t key = 0;   ///< Fact (= event) updated, deleted or inserted.
  uint32_t u = 0, v = 0;  ///< kInsert: the edge.
  double p = 0;       ///< kUpdate / kInsert.
};

struct Inputs {
  struct Edge {
    uint32_t u, v;
    double p;
  };
  std::vector<Edge> load;  ///< Fact i is load[i].
  std::vector<Mutation> mutations;
};

Inputs MakeInputs(uint64_t seed) {
  Inputs in;
  tud::Rng rng(seed * 0x9E3779B97F4A7C15ull + 3);
  const tud::TidInstance ladder = tud::workloads::LadderTid(rng, kLadderRungs);
  for (tud::FactId f = 0; f < ladder.NumFacts(); ++f) {
    const auto& args = ladder.instance().fact(f).args;
    in.load.push_back({args[0], args[1], ladder.probability(f)});
  }
  std::vector<std::pair<uint32_t, uint32_t>> positions;
  for (uint32_t i = 0; i < kLadderRungs; ++i) {
    positions.push_back({2 * i, 2 * i + 1});
    if (i + 1 < kLadderRungs) {
      positions.push_back({2 * i, 2 * i + 2});
      positions.push_back({2 * i + 1, 2 * i + 3});
    }
  }
  std::vector<Mutation::Kind> kinds;
  kinds.insert(kinds.end(), kUpdates, Mutation::kUpdate);
  kinds.insert(kinds.end(), kInserts, Mutation::kInsert);
  kinds.insert(kinds.end(), kDeletes, Mutation::kDelete);
  tud::Rng shape(kShapeSeed);
  shape.Shuffle(kinds);
  std::vector<uint32_t> live(in.load.size());
  for (uint32_t f = 0; f < live.size(); ++f) live[f] = f;
  uint32_t next_key = static_cast<uint32_t>(in.load.size());
  for (Mutation::Kind kind : kinds) {
    Mutation m;
    m.kind = kind;
    if (kind == Mutation::kInsert) {
      const auto [u, v] = positions[shape.UniformInt(positions.size())];
      m.u = u;
      m.v = v;
      m.p = 0.3 + 0.4 * rng.UniformDouble();
      m.key = next_key++;
      live.push_back(m.key);
    } else {
      const size_t at = shape.UniformInt(live.size());
      m.key = live[at];
      m.p = 0.05 + 0.9 * rng.UniformDouble();
      if (kind == Mutation::kDelete) {
        live[at] = live.back();
        live.pop_back();
      }
    }
    in.mutations.push_back(m);
  }
  return in;
}

/// Bytes of the files in `dir` named <prefix>*<extension>: their sum,
/// or the largest one's size.
uint64_t FileBytes(const fs::path& dir, const std::string& prefix,
                   const std::string& extension, bool largest) {
  uint64_t bytes = 0;
  std::error_code ec;
  for (const auto& e : fs::directory_iterator(dir, ec)) {
    if (e.path().filename().string().rfind(prefix, 0) != 0 ||
        e.path().extension() != extension)
      continue;
    const uint64_t size = e.file_size(ec);
    bytes = largest ? std::max(bytes, size) : bytes + size;
  }
  return bytes;
}

uint64_t WalBytes(const fs::path& dir) {
  return FileBytes(dir, "wal-", ".log", false);
}

}  // namespace

void RunMaintain(const Options& options, Tracer& tracer, Output* out) {
  const Inputs in = MakeInputs(options.seed);
  const size_t num_mutations = in.mutations.size();
  std::vector<double> setup_s, visible_ms, recover_ms;
  TypicalRound typical[2];  // [traced]
  std::vector<double> gates_added, circuit_gates, cells, plans_built,
      execute_us, dispatch_us, queue_us, tasks, steals, bags, wal_bytes,
      ckpt_bytes, replayed, replay_us, repairs, rebuilds, recomputed,
      delta_share;
  int width = 0;
  uint64_t request = 0;

  tud::persist::PersistOptions popts;
  popts.sync_each_append = false;
  popts.checkpoint_every = 0;

  RunRounds(options, tracer, [&](bool traced, int index) {
    const fs::path dir = fs::path(options.out_dir) /
                         ("maintain-" + std::to_string(getpid()) + "-" +
                          std::to_string(index));
    fs::remove_all(dir);
    // A mutation fails when it or one of its requeries does not answer
    // kOk; any other step that fails makes the run wrong.
    auto check = [&](EngineStatus status, const char* what) {
      if (status == EngineStatus::kOk) return true;
      out->Error(std::string("maintain: ") + what + ": " +
                 tud::EngineStatusName(status));
      return false;
    };

    // Set-up: durable load, decomposition, registration, first answers
    // and the first epoch.
    const Clock::time_point s0 = Clock::now();
    std::unique_ptr<tud::persist::DurableSession> durable;
    if (!check(tud::persist::DurableSession::Create(
                   dir.string(), tud::workloads::EdgeSchema(), popts, &durable),
               "create"))
      return;
    for (uint32_t f = 0; f < in.load.size(); ++f) {
      tud::incremental::InsertedFact fact;
      check(durable->InsertFact(0, {in.load[f].u, in.load[f].v}, in.load[f].p,
                                &fact),
            "load");
      if (fact.fact != f || fact.event != f)
        out->Error("maintain: loaded fact " + std::to_string(f) +
                   " got another id");
    }
    {
      Tracer::Scope span(tracer, "treedec.decompose");
      width = durable->session().Decomposition().width;
    }
    for (const Question& q : kQuestions) {
      const size_t before = durable->session().pcc().circuit().NumGates();
      Tracer::Scope span(tracer, "queries.lineage");
      check(durable->RegisterReachability(0, q.s, q.t), "register");
      if (traced)
        gates_added.push_back(static_cast<double>(
            durable->session().pcc().circuit().NumGates() - before));
    }
    for (size_t q = 0; q < kNumQuestions; ++q) {
      Tracer::Scope span(tracer, "inference.build");
      durable->Probability(q);
    }
    tud::incremental::EpochManager epochs;
    tud::serving::ServingOptions reader_options;
    reader_options.num_threads = 1;
    auto reader = std::make_unique<tud::serving::EpochedServingSession>(
        epochs, reader_options);
    check(durable->PublishSnapshot(epochs), "publish");
    setup_s.push_back(SecondsBetween(s0, Clock::now()));

    // The timed stream.
    std::vector<double> live(num_mutations * kNumQuestions);
    std::vector<double> seen(num_mutations / kPublishEvery * kNumQuestions);
    std::vector<double> issued_ms, reader_us;
    std::vector<double> latency_ms(num_mutations), step_ms(num_mutations);
    const tud::incremental::IncrementalStats stats0 =
        durable->incremental().stats();
    const auto reader0 = reader->scheduler().stats();
    const Clock::time_point m0 = Clock::now();
    for (size_t i = 0; i < num_mutations; ++i) {
      const Mutation& m = in.mutations[i];
      const uint64_t wal_before = traced ? WalBytes(dir) : 0;
      const Clock::time_point t0 = Clock::now();
      issued_ms.push_back(SecondsBetween(m0, t0) * 1e3);
      ++request;
      EngineStatus status = EngineStatus::kOk;
      tud::incremental::InsertedFact fact;
      switch (m.kind) {
        case Mutation::kUpdate: {
          Tracer::Scope span(tracer, "persist.update", request);
          status = durable->UpdateProbability(m.key, m.p);
          break;
        }
        case Mutation::kInsert: {
          Tracer::Scope span(tracer, "incremental.insert", request);
          status = durable->InsertFact(0, {m.u, m.v}, m.p, &fact);
          break;
        }
        case Mutation::kDelete: {
          Tracer::Scope span(tracer, "incremental.delete", request);
          status = durable->DeleteFact(m.key);
          break;
        }
      }
      bool ok = status == EngineStatus::kOk;
      for (size_t q = 0; q < kNumQuestions; ++q) {
        Tracer::Scope span(tracer, "incremental.requery", request);
        const tud::EngineResult r = durable->Probability(q);
        ok = ok && r.ok();
        live[i * kNumQuestions + q] = r.value;
        if (traced) bags.push_back(static_cast<double>(r.stats.bags_visited));
      }
      const double took_ms = SecondsBetween(t0, Clock::now()) * 1e3;
      // A failed mutation also leaves the oracle replay below behind the
      // session, so the answers after it are reported wrong too.
      latency_ms[i] = ok ? took_ms : std::nan("");
      if (!ok) ++out->failed;
      if (m.kind == Mutation::kInsert &&
          (fact.fact != m.key || fact.event != m.key))
        out->Error("maintain: inserted fact got another id");
      if (traced)  // Requeries write no WAL records.
        wal_bytes.push_back(static_cast<double>(WalBytes(dir) - wal_before));

      if ((i + 1) % kPublishEvery == 0) {
        {
          Tracer::Scope span(tracer, "incremental.publish", request);
          check(durable->PublishSnapshot(epochs), "publish");
        }
        const size_t epoch = i / kPublishEvery;
        for (size_t q = 0; q < kNumQuestions; ++q) {
          Tracer::Scope span(tracer, "serving.epoch_answer", request);
          const Clock::time_point a0 = Clock::now();
          try {
            const tud::EngineResult r = reader->Submit(q).get();
            if (traced)
              reader_us.push_back(SecondsBetween(a0, Clock::now()) * 1e6);
            check(r.status, "reader answer");
            seen[epoch * kNumQuestions + q] = r.value;
          } catch (const std::exception& e) {
            out->Error(std::string("maintain: reader answer: ") + e.what());
          }
        }
        const double now_ms = SecondsBetween(m0, Clock::now()) * 1e3;
        if (!traced) {
          for (size_t j = i + 1 - kPublishEvery; j <= i; ++j)
            visible_ms.push_back(now_ms - issued_ms[j]);
        }
      }
      if ((i + 1) % kCheckpointEvery == 0) {
        Tracer::Scope span(tracer, "persist.checkpoint", request);
        check(durable->Checkpoint(), "checkpoint");
      }
      if (traced && (i + 1) % kCheckpointEvery == 0)
        ckpt_bytes.push_back(static_cast<double>(
            FileBytes(dir, "checkpoint-", ".ckpt", /*largest=*/true)));
      // The step runs to the next mutation's start: publishes, reader
      // answers and checkpoints are counted.
      step_ms[i] = SecondsBetween(t0, Clock::now()) * 1e3;
    }
    typical[traced].Add(latency_ms, step_ms);
    out->attempted += num_mutations;
    const tud::incremental::IncrementalStats stats1 =
        durable->incremental().stats();

    // Layer probes on the final state (traced rounds only).
    tracer.set_on(false);
    if (traced) {
      const auto reader1 = reader->scheduler().stats();
      const auto snapshot = epochs.Current();
      tud::PlanScratch scratch;
      std::vector<double> evaluate;
      for (size_t q = 0; q < kNumQuestions; ++q) {
        const tud::JunctionTreePlan* plan =
            durable->incremental().plan_cache().Lookup(
                durable->incremental().root(q));
        const tud::JunctionTreePlan* epoch_plan =
            snapshot->plans->Lookup(snapshot->query_roots[q]);
        if (plan == nullptr || epoch_plan == nullptr) continue;
        cells.push_back(plan->total_cells());
        std::vector<double> exec, epoch_exec, eval;
        volatile double sink = 0;
        for (int rep = 0; rep < kProbeReps; ++rep) {
          const Clock::time_point t0 = Clock::now();
          sink = plan->Execute(durable->session().pcc().events(), {}, &scratch);
          exec.push_back(SecondsBetween(t0, Clock::now()) * 1e6);
        }
        // The epoch plan's Execute and the reader's Evaluate of the same
        // root, alternated so that both run on warm caches.
        for (int rep = 0; rep < kProbeReps; ++rep) {
          Clock::time_point t0 = Clock::now();
          sink = epoch_plan->Execute(*snapshot->registry, {}, &scratch);
          epoch_exec.push_back(SecondsBetween(t0, Clock::now()) * 1e6);
          t0 = Clock::now();
          sink = reader->Evaluate(q).value;
          eval.push_back(SecondsBetween(t0, Clock::now()) * 1e6);
        }
        (void)sink;
        execute_us.push_back(Median(exec));
        dispatch_us.push_back(Median(eval) - Median(epoch_exec));
        evaluate.push_back(Median(eval));
      }
      for (double us : reader_us) queue_us.push_back(us - Median(evaluate));
      const double answers = static_cast<double>(seen.size());
      tasks.push_back((reader1.executed - reader0.executed) / answers);
      steals.push_back(static_cast<double>(reader1.stolen - reader0.stolen));
      plans_built.push_back(static_cast<double>(
          durable->incremental().plan_cache().builds()));
      circuit_gates.push_back(static_cast<double>(
          durable->session().pcc().circuit().NumGates()));
      repairs.push_back(static_cast<double>(stats1.decomposition_repairs -
                                            stats0.decomposition_repairs));
      rebuilds.push_back(static_cast<double>(stats1.decomposition_rebuilds -
                                             stats0.decomposition_rebuilds));
      const double delta = static_cast<double>(stats1.delta_executes -
                                               stats0.delta_executes);
      const double full =
          static_cast<double>(stats1.full_executes - stats0.full_executes);
      recomputed.push_back(static_cast<double>(stats1.bags_recomputed -
                                               stats0.bags_recomputed) /
                           (delta + full));
      delta_share.push_back(delta / (delta + full));
    }
    reader.reset();
    durable.reset();

    // Recovery from the directory left behind.
    std::unique_ptr<tud::persist::DurableSession> recovered;
    tud::persist::RecoveryStats rstats;
    tracer.set_on(traced);
    const Clock::time_point r0 = Clock::now();
    {
      Tracer::Scope span(tracer, "persist.recover");
      check(tud::persist::DurableSession::Recover(dir.string(), popts,
                                                  &recovered, &rstats),
            "recover");
    }
    recover_ms.push_back(SecondsBetween(r0, Clock::now()) * 1e3);
    tracer.set_on(false);

    // Checks, untimed: every requeried answer against the oracle after
    // its mutation; every reader answer bit-identical to the live answer
    // of its epoch; the recovered session bit-identical to the live one.
    LadderModel model(kLadderRungs);
    for (uint32_t f = 0; f < in.load.size(); ++f)
      model.AddFact(f, in.load[f].u, in.load[f].v, in.load[f].p);
    for (size_t i = 0; i < num_mutations; ++i) {
      const Mutation& m = in.mutations[i];
      if (m.kind == Mutation::kInsert) model.AddFact(m.key, m.u, m.v, m.p);
      else model.SetProbability(m.key, m.kind == Mutation::kDelete ? 0 : m.p);
      for (size_t q = 0; q < kNumQuestions; ++q) {
        const double got = live[i * kNumQuestions + q];
        const double want = model.Reachability(kQuestions[q].s, kQuestions[q].t);
        if (std::fabs(got - want) > kTolerance)
          out->Error("maintain mutation " + std::to_string(i) + " question " +
                     std::to_string(q) + ": " + std::to_string(got) +
                     " != oracle " + std::to_string(want));
        if ((i + 1) % kPublishEvery == 0 &&
            seen[i / kPublishEvery * kNumQuestions + q] != got)
          out->Error("maintain epoch " + std::to_string(i / kPublishEvery) +
                     ": reader answer differs from the live one");
      }
    }
    if (recovered != nullptr) {
      for (size_t q = 0; q < kNumQuestions; ++q) {
        const tud::EngineResult r = recovered->Probability(q);
        if (!r.ok() ||
            r.value != live[(num_mutations - 1) * kNumQuestions + q])
          out->Error("maintain: recovered answer to question " +
                     std::to_string(q) + " differs from the live one");
      }
      if (traced && rstats.records_replayed > 0) {
        // Recovery with nothing to replay prices the checkpoint load.
        check(recovered->Checkpoint(), "checkpoint");
        recovered.reset();
        const Clock::time_point b0 = Clock::now();
        check(tud::persist::DurableSession::Recover(dir.string(), popts,
                                                    &recovered),
              "recover");
        const double base_ms = SecondsBetween(b0, Clock::now()) * 1e3;
        replayed.push_back(static_cast<double>(rstats.records_replayed));
        replay_us.push_back((recover_ms.back() - base_ms) * 1e3 /
                            static_cast<double>(rstats.records_replayed));
      }
    }
    recovered.reset();
    fs::remove_all(dir);
  });

  out->end_to_end["setup_s"] = Median(setup_s);
  typical[0].Report(out);

  auto& layer = out->per_layer;
  auto median_of = [&](const char* span, double scale) {
    return Median(tracer.DurationsUs(span)) * scale;
  };
  layer["treedec.decompose_ms"] = median_of("treedec.decompose", 1e-3);
  layer["treedec.width"] = width;
  layer["treedec.repairs"] = Median(repairs);
  layer["treedec.rebuilds"] = Median(rebuilds);
  layer["queries.lineage_us"] = median_of("queries.lineage", 1);
  layer["queries.gates_added_per_lineage"] = Mean(gates_added);
  layer["circuits.gates"] = Median(circuit_gates);
  layer["inference.build_ms"] = median_of("inference.build", 1e-3);
  layer["inference.plans_built"] = Median(plans_built);
  layer["inference.plan_cells"] = Median(cells);
  layer["inference.execute_us"] = Median(execute_us);
  layer["inference.dispatch_us"] = Median(dispatch_us);
  layer["inference.bags_visited_per_answer"] = Mean(bags);
  layer["serving.queue_wait_us"] = Median(queue_us);
  layer["serving.tasks_per_answer"] = Median(tasks);
  layer["serving.steals"] = Median(steals);
  layer["serving.epoch_answer_us"] = median_of("serving.epoch_answer", 1);
  layer["serving.visible_p50_ms"] = Median(visible_ms);
  layer["incremental.requery_us"] = median_of("incremental.requery", 1);
  layer["incremental.bags_recomputed_per_requery"] = Median(recomputed);
  layer["incremental.delta_share"] = Median(delta_share);
  layer["incremental.insert_ms"] = median_of("incremental.insert", 1e-3);
  layer["incremental.delete_us"] = median_of("incremental.delete", 1);
  layer["incremental.publish_ms"] = median_of("incremental.publish", 1e-3);
  layer["persist.update_us"] = median_of("persist.update", 1);
  layer["persist.wal_bytes_per_mutation"] = Mean(wal_bytes);
  layer["persist.checkpoint_ms"] = median_of("persist.checkpoint", 1e-3);
  layer["persist.checkpoint_bytes"] = Median(ckpt_bytes);
  layer["persist.records_replayed"] = Median(replayed);
  layer["persist.replay_us_per_record"] = Median(replay_us);
  layer["persist.recover_ms"] = Median(recover_ms);
  layer["trace.overhead_pct"] =
      OverheadPct(typical[1].MedianP50(), typical[0].MedianP50());
}

}  // namespace perfbench
