// Answer checks made apart from the library: exact probabilities for the
// two question families the benchmark asks, computed without circuits,
// decompositions or engines. Tested against possible-world enumeration
// in oracle_test.cc.
#ifndef PERFBENCH_ORACLE_H_
#define PERFBENCH_ORACLE_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "uncertain/tid_instance.h"

namespace perfbench {

/// Observed facts: (fact key, present). An observed fact counts with
/// probability 1 (present) or 0 (absent).
using Observations = std::vector<std::pair<uint32_t, bool>>;

/// An uncertain ladder with `rungs` levels as the workloads generate it:
/// vertex 2i is the left rail and 2i+1 the right rail of level i. Edge
/// positions are the rung (2i, 2i+1) and the rails (2i, 2i+2) and
/// (2i+1, 2i+3); any number of independent facts may sit on one
/// position (parallel facts), each under a caller-chosen key.
class LadderModel {
 public:
  explicit LadderModel(uint32_t rungs) : rungs_(rungs) {}

  /// Adds fact `key` over the undirected edge (u, v) with probability
  /// `p`. Returns false, adding nothing, when (u, v) is not a ladder
  /// position or the key is taken.
  bool AddFact(uint32_t key, uint32_t u, uint32_t v, double p);

  /// Sets a fact's probability; deleting a fact is probability 0.
  void SetProbability(uint32_t key, double p);

  /// P(s and t are connected by present facts, read as undirected
  /// edges), by a frontier-partition dynamic program over the levels.
  double Reachability(uint32_t s, uint32_t t,
                      const Observations& observed = {}) const;

 private:
  struct Fact {
    int32_t position = -1;  ///< -1: key unused.
    double p = 0;
  };
  /// Position index 3*level + {0: rung, 1: left rail, 2: right rail}.
  int32_t PositionOf(uint32_t u, uint32_t v) const;

  uint32_t rungs_;
  std::vector<Fact> facts_;  ///< By key.
};

/// P(R(c) ∧ ∃y S(c, y) ∧ T(y)) on a TID over the schema R(x), S(x, y),
/// T(y) (relations 0, 1, 2), by the closed form
///   p_R(c) · (1 − Π_y (1 − p_S(c, y) · p_T(y))),
/// where p_X is the probability that at least one fact X(...) with
/// those arguments is present. Observation keys are fact ids.
double BoundRstProbability(const tud::TidInstance& tid, tud::Value c,
                           const Observations& observed = {});

}  // namespace perfbench

#endif  // PERFBENCH_ORACLE_H_
