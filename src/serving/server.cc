#include "serving/server.h"

#include <algorithm>
#include <chrono>
#include <stdexcept>
#include <utility>

#include "automata/uncertain_tree.h"
#include "inference/junction_tree.h"
#include "queries/query_session.h"
#include "uncertain/pcc_instance.h"

namespace tud {
namespace serving {

namespace {

TaskScheduler::Options SchedulerOptions(const ServingOptions& options) {
  TaskScheduler::Options so;
  so.num_threads = options.num_threads;
  so.queue_capacity = options.queue_capacity;
  return so;
}

}  // namespace

ServingSession::ServingSession(const BoolCircuit& circuit,
                               const EventRegistry& registry,
                               const ServingOptions& options)
    : circuit_(&circuit),
      registry_(&registry),
      options_(options),
      engine_(options.seed_topological, /*cache_plans=*/true),
      scheduler_(SchedulerOptions(options)) {}

ServingSession ServingSession::Over(QuerySession& session,
                                    const ServingOptions& options) {
  return ServingSession(session.pcc().circuit(), session.pcc().events(),
                        options);
}

ServingSession ServingSession::Over(TreeQuerySession& session,
                                    const ServingOptions& options) {
  return ServingSession(session.tree().circuit(), session.events(), options);
}

EngineResult ServingSession::RunOne(GateId root, const Evidence& evidence) {
  return engine_.Estimate(*circuit_, root, *registry_, evidence);
}

QueryBudget ServingSession::MakeBudget(const QueryOptions& query) const {
  QueryBudget budget;
  const double deadline_ms =
      query.deadline_ms > 0 ? query.deadline_ms : options_.default_deadline_ms;
  if (deadline_ms > 0) budget = QueryBudget::WithDeadlineMs(deadline_ms);
  budget.max_table_cells = query.max_table_cells;
  budget.max_samples = query.max_samples;
  budget.cancel = query.cancel.get();
  return budget;
}

namespace {

/// EWMA step with alpha = 1/8, seeded by the first sample.
uint64_t EwmaStep(uint64_t old_value, uint64_t sample) {
  return old_value == 0 ? sample : old_value - old_value / 8 + sample / 8;
}

}  // namespace

EngineResult ServingSession::RunGoverned(const Request& request) {
  const auto start = std::chrono::steady_clock::now();
  EngineResult result =
      request.budget.unlimited()
          ? engine_.Estimate(*circuit_, request.root, *registry_,
                             request.evidence)
          : engine_.Estimate(*circuit_, request.root, *registry_,
                             request.evidence, request.budget);
  const uint64_t sample_ns = static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - start)
          .count());
  // Calibrate the cost model: the plan is cached by now (Estimate built
  // it), so its cell count converts the service-time sample into a
  // rate — nanoseconds per 1024 cells — that transfers across plans of
  // different sizes, unlike a flat per-query mean.
  const JunctionTreePlan* plan = engine_.plan_cache()->Lookup(request.root);
  const uint64_t cells =
      plan == nullptr ? 0 : static_cast<uint64_t>(plan->total_cells());
  if (cells > 0) {
    const uint64_t rate_sample = sample_ns * 1024 / cells;
    ewma_ns_per_kilocell_.store(
        EwmaStep(ewma_ns_per_kilocell_.load(std::memory_order_relaxed),
                 rate_sample),
        std::memory_order_relaxed);
    ewma_cells_.store(
        EwmaStep(ewma_cells_.load(std::memory_order_relaxed), cells),
        std::memory_order_relaxed);
  }
  return result;
}

bool ServingSession::ShouldShed(uint64_t backlog_cells,
                                uint64_t ns_per_kilocell, unsigned workers,
                                int64_t headroom_ns) {
  if (ns_per_kilocell == 0 || backlog_cells == 0) return false;
  if (headroom_ns <= 0) return true;
  const double est_wait_ns = static_cast<double>(backlog_cells) /
                             static_cast<double>(std::max(1u, workers)) *
                             static_cast<double>(ns_per_kilocell) / 1024.0;
  return est_wait_ns > static_cast<double>(headroom_ns);
}

void ServingSession::Fulfil(const std::shared_ptr<Request>& request) {
  // Per-task exception containment: an engine throw (injected
  // bad_alloc, a builder failure) fails this query's own future; the
  // worker thread — and every other queued future — is unaffected.
  try {
    request->promise.set_value(RunGoverned(*request));
  } catch (...) {
    failed_queries_.fetch_add(1, std::memory_order_relaxed);
    request->promise.set_exception(std::current_exception());
  }
  backlog_cells_.fetch_sub(request->charged_cells, std::memory_order_relaxed);
  in_flight_.fetch_sub(1, std::memory_order_relaxed);
}

std::future<EngineResult> ServingSession::Submit(GateId lineage,
                                                 Evidence evidence) {
  return Submit(lineage, std::move(evidence), QueryOptions{});
}

std::future<EngineResult> ServingSession::Submit(GateId lineage,
                                                 Evidence evidence,
                                                 const QueryOptions& query) {
  auto request = std::make_shared<Request>();
  request->root = lineage;
  request->evidence = std::move(evidence);
  request->budget = MakeBudget(query);
  request->cancel = query.cancel;
  std::future<EngineResult> result = request->promise.get_future();

  // Price the request in table cells: a cached plan gives the exact
  // count; a cold root is charged the EWMA of observed plan sizes (0 on
  // a cold session — the query is then invisible to admission, which
  // errs on the admit side by design).
  {
    const JunctionTreePlan* plan = engine_.plan_cache()->Lookup(lineage);
    request->charged_cells =
        plan == nullptr ? ewma_cells_.load(std::memory_order_relaxed)
                        : static_cast<uint64_t>(plan->total_cells());
  }

  // Queue-time-aware admission: if draining the cell backlog already
  // queued will, by the calibrated ns-per-kilocell rate, outlast this
  // query's deadline, shed it now with a typed rejection — O(1) at the
  // door beats a guaranteed kDeadlineExceeded after minutes in line.
  // Only sheds on a warm model and only for governed queries with a
  // deadline (ShouldShed's contract).
  if (request->budget.has_deadline()) {
    const int64_t headroom_ns =
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            request->budget.deadline - std::chrono::steady_clock::now())
            .count();
    if (ShouldShed(backlog_cells_.load(std::memory_order_relaxed),
                   ewma_ns_per_kilocell_.load(std::memory_order_relaxed),
                   scheduler_.num_threads(), headroom_ns)) {
      request->promise.set_value(
          MakeStatusResult("serving", EngineStatus::kRejected));
      return result;
    }
  }

  if (!options_.coalesce) {
    // Load shedding at the intake: past shed_capacity the query is
    // rejected (typed, immediate) instead of the submitter blocking.
    if (options_.shed_capacity > 0 &&
        in_flight_.load(std::memory_order_relaxed) >= options_.shed_capacity) {
      request->promise.set_value(
          MakeStatusResult("serving", EngineStatus::kRejected));
      return result;
    }
    in_flight_.fetch_add(1, std::memory_order_relaxed);
    backlog_cells_.fetch_add(request->charged_cells,
                             std::memory_order_relaxed);
    bool accepted = scheduler_.Submit([this, request] { Fulfil(request); });
    if (!accepted) FailRequest(request);
    return result;
  }
  bool schedule_drain = false;
  {
    std::unique_lock<std::mutex> lock(pending_mu_);
    if (options_.shed_capacity > 0 &&
        pending_.size() >= options_.shed_capacity) {
      lock.unlock();
      request->promise.set_value(
          MakeStatusResult("serving", EngineStatus::kRejected));
      return result;
    }
    // Backpressure: the coalescing buffer honours the same bound as the
    // scheduler intake, so memory stays bounded under overload. Worker
    // threads never block here — they are the consumers that shrink
    // pending_, so blocking one could live-lock the pool.
    if (!scheduler_.OnWorkerThread()) {
      pending_not_full_.wait(lock, [&] {
        return pending_.size() < options_.queue_capacity;
      });
    }
    in_flight_.fetch_add(1, std::memory_order_relaxed);
    backlog_cells_.fetch_add(request->charged_cells,
                             std::memory_order_relaxed);
    pending_.push_back(std::move(request));
    if (!drain_scheduled_) {
      drain_scheduled_ = true;
      schedule_drain = true;
    }
  }
  // At most one drain task is pending at a time: submissions racing in
  // behind it are picked up by the same drain — that is the coalescing.
  if (schedule_drain && !scheduler_.Submit([this] { DrainPending(); })) {
    // Shutdown began: no drain will ever run, so fail everything queued
    // (leaving drain_scheduled_ set would silently strand all later
    // submissions too).
    FailAllPending();
  }
  return result;
}

void ServingSession::DrainPending() {
  std::vector<std::shared_ptr<Request>> batch;
  bool reschedule = false;
  {
    std::lock_guard<std::mutex> lock(pending_mu_);
    size_t take = std::min(pending_.size(), options_.max_coalesce);
    batch.assign(std::make_move_iterator(pending_.begin()),
                 std::make_move_iterator(pending_.begin() + take));
    pending_.erase(pending_.begin(), pending_.begin() + take);
    if (pending_.empty()) {
      drain_scheduled_ = false;
    } else {
      reschedule = true;  // Oversized burst: keep drain_scheduled_ set.
    }
  }
  pending_not_full_.notify_all();
  if (reschedule && !scheduler_.Spawn([this] { DrainPending(); }))
    FailAllPending();

  // Group the batch by evidence (groups are what a shared pass can
  // answer together; grouping also keeps the fan-out deterministic).
  // Governed requests stay out of the groups: each carries its own
  // budget, which a shared pass cannot honour per member.
  std::vector<std::vector<std::shared_ptr<Request>>> groups;
  for (auto& request : batch) {
    if (!request->budget.unlimited()) {
      std::shared_ptr<Request> r = std::move(request);
      if (!scheduler_.Spawn([this, r] { Fulfil(r); })) FailRequest(r);
      continue;
    }
    bool placed = false;
    for (auto& group : groups) {
      if (group.front()->evidence == request->evidence) {
        group.push_back(std::move(request));
        placed = true;
        break;
      }
    }
    if (!placed) groups.emplace_back(1, std::move(request));
  }

  for (auto& group : groups) {
    if (options_.shared_pass && group.size() > 1) {
      // One batched estimate for the whole group: a single calibrating
      // message pass over the union cone when it stays narrow.
      auto shared_group = std::make_shared<
          std::vector<std::shared_ptr<Request>>>(std::move(group));
      bool accepted = scheduler_.Spawn([this, shared_group] {
        std::vector<GateId> roots;
        roots.reserve(shared_group->size());
        for (const auto& request : *shared_group)
          roots.push_back(request->root);
        try {
          std::vector<EngineResult> results = engine_.EstimateBatch(
              *circuit_, roots, *registry_, shared_group->front()->evidence);
          for (size_t i = 0; i < shared_group->size(); ++i)
            (*shared_group)[i]->promise.set_value(results[i]);
        } catch (...) {
          // Contain the throw to this group's futures: every other
          // queued query (and the worker itself) is unaffected.
          for (const auto& request : *shared_group)
            request->promise.set_exception(std::current_exception());
        }
        uint64_t group_cells = 0;
        for (const auto& request : *shared_group)
          group_cells += request->charged_cells;
        backlog_cells_.fetch_sub(group_cells, std::memory_order_relaxed);
        in_flight_.fetch_sub(shared_group->size(),
                             std::memory_order_relaxed);
      });
      if (!accepted)
        for (const auto& request : *shared_group) FailRequest(request);
      continue;
    }
    // Per-root fan-out: one subtask per query, pushed onto this
    // worker's deque (idle workers steal their share).
    for (auto& request : group) {
      std::shared_ptr<Request> r = std::move(request);
      if (!scheduler_.Spawn([this, r] { Fulfil(r); })) FailRequest(r);
    }
  }
}

void ServingSession::FailRequest(const std::shared_ptr<Request>& request) {
  backlog_cells_.fetch_sub(request->charged_cells, std::memory_order_relaxed);
  in_flight_.fetch_sub(1, std::memory_order_relaxed);
  request->promise.set_exception(std::make_exception_ptr(
      std::runtime_error("ServingSession: shutdown began before the query "
                         "could be scheduled")));
}

void ServingSession::FailAllPending() {
  std::vector<std::shared_ptr<Request>> orphaned;
  {
    std::lock_guard<std::mutex> lock(pending_mu_);
    drain_scheduled_ = false;
    orphaned.swap(pending_);
  }
  pending_not_full_.notify_all();
  for (const auto& request : orphaned) FailRequest(request);
}

EngineResult ServingSession::Evaluate(GateId lineage,
                                      const Evidence& evidence) {
  return RunOne(lineage, evidence);
}

EngineResult ServingSession::Evaluate(GateId lineage, const Evidence& evidence,
                                      const QueryOptions& query) {
  const QueryBudget budget = MakeBudget(query);
  if (budget.unlimited()) return RunOne(lineage, evidence);
  return engine_.Estimate(*circuit_, lineage, *registry_, evidence, budget);
}

void ServingSession::Prewarm(GateId lineage) {
  engine_.Prewarm(*circuit_, lineage);
}

void ServingSession::Drain() { scheduler_.Drain(); }

const ConcurrentPlanCache& ServingSession::plan_cache() const {
  return *engine_.plan_cache();
}

// ---------------------------------------------------------------------------
// EpochedServingSession
// ---------------------------------------------------------------------------

EpochedServingSession::EpochedServingSession(
    const incremental::EpochManager& epochs, const ServingOptions& options)
    : epochs_(&epochs),
      default_deadline_ms_(options.default_deadline_ms),
      scheduler_(SchedulerOptions(options)) {}

QueryBudget EpochedServingSession::MakeBudget(
    const QueryOptions& query) const {
  QueryBudget budget;
  const double deadline_ms =
      query.deadline_ms > 0 ? query.deadline_ms : default_deadline_ms_;
  if (deadline_ms > 0) budget = QueryBudget::WithDeadlineMs(deadline_ms);
  budget.max_table_cells = query.max_table_cells;
  budget.max_samples = query.max_samples;
  budget.cancel = query.cancel.get();
  return budget;
}

EngineResult EpochedServingSession::RunOne(size_t query_index,
                                           const Evidence& evidence,
                                           const QueryBudget& budget) const {
  // One acquire load pins the whole epoch for this query: registry,
  // plans, and roots are all read through `snap`, and the shared_ptr
  // keeps the epoch (and the plans it co-owns) alive even if the writer
  // supersedes it mid-evaluation.
  std::shared_ptr<const incremental::SessionSnapshot> snap =
      epochs_->Current();
  if (snap == nullptr) {
    // No epoch published yet: a sequencing mistake on the caller's
    // side, answered (not thrown) so one early query cannot take a
    // worker down.
    return MakeStatusResult("epoched_jt", EngineStatus::kInvalidArgument);
  }
  if (query_index >= snap->query_roots.size()) {
    // An index the epoch does not carry (racing deregistration, stale
    // handle): a normal answer, not a crash.
    return MakeStatusResult("epoched_jt", EngineStatus::kInvalidArgument);
  }
  // The writer compiled every published root before publication, so a
  // reader never builds.
  const JunctionTreePlan* plan =
      snap->plans->Lookup(snap->query_roots[query_index]);
  EngineResult result;
  result.engine = "epoched_jt";
  plan->FillStats(&result.stats);
  if (plan->build_status() != EngineStatus::kOk) {
    // Too wide for exact message passing: a typed refusal, governed or
    // not.
    result.status = plan->build_status();
    result.error_bound = 1.0;
    return result;
  }
  if (budget.unlimited()) {
    result.value = plan->Execute(*snap->registry, evidence,
                                 TaskScheduler::CurrentScratch());
    return result;
  }
  double value = 0.0;
  EngineStatus st =
      plan->ExecuteGoverned(*snap->registry, evidence,
                            TaskScheduler::CurrentScratch(), budget, &value);
  if (st != EngineStatus::kOk) {
    result.status = st;
    result.error_bound = 1.0;
    return result;
  }
  result.value = value;
  return result;
}

std::future<EngineResult> EpochedServingSession::Submit(size_t query_index,
                                                        Evidence evidence) {
  return SubmitImpl(query_index, std::move(evidence), QueryBudget{}, nullptr);
}

std::future<EngineResult> EpochedServingSession::Submit(
    size_t query_index, Evidence evidence, const QueryOptions& query) {
  return SubmitImpl(query_index, std::move(evidence), MakeBudget(query),
                    query.cancel);
}

std::future<EngineResult> EpochedServingSession::SubmitImpl(
    size_t query_index, Evidence evidence, QueryBudget budget,
    std::shared_ptr<const CancelToken> cancel) {
  auto promise = std::make_shared<std::promise<EngineResult>>();
  std::future<EngineResult> result = promise->get_future();
  auto task = [this, promise, query_index, evidence = std::move(evidence),
               budget, cancel = std::move(cancel)]() mutable {
    try {
      promise->set_value(RunOne(query_index, evidence, budget));
    } catch (...) {
      promise->set_exception(std::current_exception());
    }
  };
  if (!scheduler_.Submit(std::move(task))) {
    promise->set_exception(std::make_exception_ptr(
        std::runtime_error("EpochedServingSession: shutdown began before "
                           "the query could be scheduled")));
  }
  return result;
}

EngineResult EpochedServingSession::Evaluate(size_t query_index,
                                             const Evidence& evidence) {
  return RunOne(query_index, evidence, QueryBudget{});
}

EngineResult EpochedServingSession::Evaluate(size_t query_index,
                                             const Evidence& evidence,
                                             const QueryOptions& query) {
  return RunOne(query_index, evidence, MakeBudget(query));
}

void EpochedServingSession::Drain() { scheduler_.Drain(); }

}  // namespace serving
}  // namespace tud
