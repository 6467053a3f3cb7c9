#ifndef TUD_INCREMENTAL_EPOCH_H_
#define TUD_INCREMENTAL_EPOCH_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <utility>
#include <vector>

#include "circuits/bool_circuit.h"
#include "events/event_registry.h"
#include "inference/engine.h"
#include "inference/junction_tree.h"

namespace tud {
namespace incremental {

/// The compiled plans of one epoch, one per distinct registered query
/// root. The plans are co-owned with the writer's live plan cache, not
/// copies: gates never change once appended to the circuit, and a plan
/// reads nothing but the registry at Execute, so the live plan answers
/// the epoch's own registry exactly as a private rebuild would. Filled
/// by the writer before publication, read-only (const) afterwards.
class EpochPlans {
 public:
  void Add(GateId root, std::shared_ptr<const JunctionTreePlan> plan) {
    by_root_.emplace(root, std::move(plan));
  }
  /// The plan for `root`, or nullptr when no registered query of the
  /// epoch has that root.
  const JunctionTreePlan* Lookup(GateId root) const {
    auto it = by_root_.find(root);
    return it == by_root_.end() ? nullptr : it->second.get();
  }

 private:
  std::unordered_map<GateId, std::shared_ptr<const JunctionTreePlan>>
      by_root_;
};

/// One immutable, internally consistent version of a maintained
/// instance: the registry copy and the plans every query of the epoch
/// evaluates against, plus the published query roots and the deletion
/// tombstones in force. Snapshots are built entirely by the epoch
/// writer before publication and never mutated afterwards — readers
/// share them freely.
///
/// A snapshot holds no circuit: its plans are already compiled, and
/// they pin exactly the roots the epoch publishes. Holding the plans by
/// shared_ptr keeps them alive after the writer's cache drops them, and
/// after the IncrementalSession itself is gone.
struct SessionSnapshot {
  uint64_t epoch = 0;
  std::shared_ptr<const EventRegistry> registry;
  std::shared_ptr<const EpochPlans> plans;
  /// Lineage roots of the registered queries, by query index.
  std::vector<GateId> query_roots;
  /// Tombstone pins of deleted facts (already reflected in the
  /// registry as probability-0 events; kept for diagnostics and for
  /// engines fed evidence instead of the snapshot registry).
  Evidence tombstones;
  /// Stamped equal to `epoch` before publication: a reader observing
  /// epoch != epoch_check has a torn snapshot, which the publication
  /// protocol (handing over a fully built immutable object under the
  /// manager's mutex) guarantees never happens — the concurrency
  /// stress test pins it.
  uint64_t epoch_check = 0;
};

/// Publication point between the single epoch writer (the incremental
/// session applying updates) and any number of serving readers: a
/// shared_ptr to the current immutable SessionSnapshot, swapped under a
/// mutex whose critical section is one pointer copy (a refcount
/// increment for readers, a pointer swap for the writer).
///
/// The mutex is deliberate where std::atomic<shared_ptr> would look
/// natural: libstdc++'s _Sp_atomic unlocks its internal lock bit with
/// a relaxed store on the load path, which ThreadSanitizer cannot
/// credit, so a continuously publishing writer racing per-query loads
/// drowns the TSan CI job in false positives. A real mutex has the
/// same uncontended cost here (one atomic RMW per query) and TSan
/// models it exactly.
///
/// Readers grab the pointer once per query and keep the shared_ptr for
/// the query's duration, so a snapshot superseded mid-query stays
/// alive until its last in-flight reader drops it — the shared_ptr
/// refcount *is* the retire-after-last-reader-drains discipline, with
/// reclamation automatic instead of deferred to cache destruction as
/// in ConcurrentPlanCache.
///
/// Single writer: Publish is called only from the update thread.
class EpochManager {
 public:
  /// The current snapshot (never null after the first Publish; null
  /// before it). Grab once per query and read everything through it.
  std::shared_ptr<const SessionSnapshot> Current() const {
    std::lock_guard<std::mutex> lock(mu_);
    return current_;
  }

  /// Stamps `snapshot` with the next epoch number and publishes it.
  /// Returns the stamped epoch. The superseded snapshot is released
  /// (freed once its last in-flight reader drains).
  uint64_t Publish(SessionSnapshot snapshot) {
    const uint64_t epoch = ++last_epoch_;
    snapshot.epoch = epoch;
    snapshot.epoch_check = epoch;
    auto next = std::make_shared<const SessionSnapshot>(std::move(snapshot));
    std::shared_ptr<const SessionSnapshot> retired;
    {
      std::lock_guard<std::mutex> lock(mu_);
      retired = std::exchange(current_, std::move(next));
    }
    // `retired` drops outside the lock: if this writer holds the last
    // reference, the snapshot (registry, plan references) is destroyed
    // here rather than inside the critical section.
    return epoch;
  }

  /// Epoch of the most recent Publish (0 before any).
  uint64_t current_epoch() const { return last_epoch_; }

 private:
  mutable std::mutex mu_;
  std::shared_ptr<const SessionSnapshot> current_;
  uint64_t last_epoch_ = 0;  ///< Writer-only.
};

}  // namespace incremental
}  // namespace tud

#endif  // TUD_INCREMENTAL_EPOCH_H_
