#ifndef TUD_QUERIES_REACHABILITY_H_
#define TUD_QUERIES_REACHABILITY_H_

#include "circuits/bool_circuit.h"
#include "queries/lineage.h"
#include "relational/instance.h"
#include "uncertain/pcc_instance.h"

namespace tud {

/// Lineage of the Boolean query "target is reachable from source through
/// present `edge_relation` facts (read as undirected edges)" on a
/// pcc-instance.
///
/// Reachability is MSO-definable but not expressible as a (U)CQ, so this
/// exercises the part of Theorem 1-2's scope that goes beyond
/// conjunctive queries ("for any query that can be compiled to an
/// automaton: beyond CQs, this covers MSO..."). The construction is the
/// classic Courcelle-style connectivity DP over a nice tree
/// decomposition: the state tracks the partition of the current bag
/// into connected blocks of used edges, plus per-block flags recording a
/// connection to the (possibly forgotten) source / target. Each
/// (node, state) pair becomes an OR gate; using an edge fact ANDs in its
/// annotation gate and merges blocks. For bounded width the state count
/// per node is a constant (Bell numbers of the bag size), so the
/// construction is linear in the instance.
///
/// The returned gate is true in exactly the possible worlds where a path
/// of present edges connects `source` to `target` (true trivially if
/// source == target). Requires a decomposition of width at most
/// kMaxReachabilityWidth (checked).
///
/// The DP tables are flat: states are packed into two words (4 bits per
/// bag position for the partition, plus the flag masks and the done bit)
/// and interned in an open-addressed table, replacing the former
/// per-node unordered_map<RState, GateId> — the same dense-table
/// treatment the compiled automaton engine uses.
GateId ComputeReachabilityLineage(PccInstance& pcc, RelationId edge_relation,
                                  Value source, Value target,
                                  LineageStats* stats = nullptr);

/// Low-level entry point: the caller provides the nice decomposition of
/// the instance's Gaifman graph and the fact-to-node assignment (see
/// DecomposeInstance), so many queries against one instance can share
/// one decomposition — the QuerySession reuse path.
GateId ComputeReachabilityLineageOnDecomposition(
    PccInstance& pcc, RelationId edge_relation, Value source, Value target,
    const NiceTreeDecomposition& ntd,
    const std::vector<std::vector<FactId>>& facts_at_node,
    LineageStats* stats = nullptr);

/// Widest decomposition the connectivity DPs accept: bags of up to 15
/// vertices, whose block ids fit the 4-bit packing and the 16-bit
/// source/target masks. The DPs abort on wider decompositions;
/// QuerySession refuses such questions with kInvalidGate instead.
inline constexpr int kMaxReachabilityWidth = 14;

/// At most this many targets per target-indexed DP call: the per-target
/// block assignment packs into 4 bits per target of one key word.
/// QuerySession::ReachabilityLineageBatch chunks larger batteries.
inline constexpr size_t kMaxReachabilityTargetsPerDp = 16;

/// Target-indexed batch variant: lineages of "target_i reachable from
/// `source`" for a whole battery of targets out of ONE connectivity DP.
///
/// Running the single-target DP once per target yields circuits that
/// share only their event variables, so the union cone of a battery is
/// multi-track — its decomposition width is roughly the per-target
/// widths *added*, which forces the batch planner's per-root fallback
/// (ROADMAP: width 33 vs 10 per root on a ladder). Here one DP carries
/// all targets: the state is the bag partition with a source flag per
/// block plus, per still-pending target, the block its component
/// currently touches (4 bits each, hence the 16-target cap). There is no
/// absorbing done state — when a transition first merges a pending
/// target's block with the source's, the derivation gate is emitted as a
/// *witness* into that target's OR accumulator and the target is
/// dropped from the state (monotonicity makes the OR of witnesses the
/// exact lineage), so the state space never indexes the 2^T set of
/// already-connected targets. The resulting battery of gates shares one
/// narrow cone, and `EstimateBatch` serves it in a single shared pass.
///
/// Returns one gate per entry of `targets`, in input order (duplicates
/// allowed; `source == target` yields const-true, out-of-domain targets
/// const-false). Requires `targets.size() <= kMaxReachabilityTargetsPerDp`
/// non-trivial distinct targets.
std::vector<GateId> ComputeMultiTargetReachabilityLineageOnDecomposition(
    PccInstance& pcc, RelationId edge_relation, Value source,
    const std::vector<Value>& targets, const NiceTreeDecomposition& ntd,
    const std::vector<std::vector<FactId>>& facts_at_node,
    LineageStats* stats = nullptr);

/// Convenience wrapper deriving the decomposition itself (tests, one-off
/// batteries).
std::vector<GateId> ComputeMultiTargetReachabilityLineage(
    PccInstance& pcc, RelationId edge_relation, Value source,
    const std::vector<Value>& targets, LineageStats* stats = nullptr);

/// Ground-truth evaluation on a certain instance (BFS over present
/// edges); used by tests and the per-world cross-validation.
bool EvaluateReachability(const Instance& instance, RelationId edge_relation,
                          Value source, Value target);

}  // namespace tud

#endif  // TUD_QUERIES_REACHABILITY_H_
