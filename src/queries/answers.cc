#include "queries/answers.h"

#include <algorithm>
#include <functional>

#include "queries/lineage.h"
#include "util/check.h"

namespace tud {

namespace {

// Enumerates all homomorphisms of the query into `instance`, reporting
// the full variable assignment for each.
void AllHomomorphisms(const ConjunctiveQuery& query, const Instance& instance,
                      size_t index, std::vector<Value>& assignment,
                      std::vector<bool>& assigned,
                      const std::function<void(const std::vector<Value>&)>& fn) {
  if (index == query.NumAtoms()) {
    fn(assignment);
    return;
  }
  const QueryAtom& atom = query.atom(index);
  for (const Fact& fact : instance.facts()) {
    if (fact.relation != atom.relation ||
        fact.args.size() != atom.terms.size()) {
      continue;
    }
    std::vector<VarId> newly_bound;
    bool ok = true;
    for (size_t i = 0; i < atom.terms.size(); ++i) {
      const Term& t = atom.terms[i];
      if (!t.is_var) {
        if (t.constant != fact.args[i]) {
          ok = false;
          break;
        }
        continue;
      }
      if (assigned[t.var]) {
        if (assignment[t.var] != fact.args[i]) {
          ok = false;
          break;
        }
      } else {
        assigned[t.var] = true;
        assignment[t.var] = fact.args[i];
        newly_bound.push_back(t.var);
      }
    }
    if (ok) {
      AllHomomorphisms(query, instance, index + 1, assignment, assigned, fn);
    }
    for (VarId v : newly_bound) assigned[v] = false;
  }
}

}  // namespace

std::set<std::vector<Value>> EvaluateAnswers(
    const ConjunctiveQuery& query, const std::vector<VarId>& free_vars,
    const Instance& instance) {
  for (VarId v : free_vars) TUD_CHECK_LT(v, query.NumVars());
  std::set<std::vector<Value>> answers;
  std::vector<Value> assignment(query.NumVars(), 0);
  std::vector<bool> assigned(query.NumVars(), false);
  AllHomomorphisms(query, instance, 0, assignment, assigned,
                   [&](const std::vector<Value>& hom) {
                     std::vector<Value> tuple;
                     tuple.reserve(free_vars.size());
                     for (VarId v : free_vars) tuple.push_back(hom[v]);
                     answers.insert(std::move(tuple));
                   });
  return answers;
}

ConjunctiveQuery BindVariables(const ConjunctiveQuery& query,
                               const std::vector<VarId>& vars,
                               const std::vector<Value>& values) {
  TUD_CHECK_EQ(vars.size(), values.size());
  ConjunctiveQuery bound;
  for (const QueryAtom& atom : query.atoms()) {
    std::vector<Term> terms;
    terms.reserve(atom.terms.size());
    for (const Term& t : atom.terms) {
      if (t.is_var) {
        auto it = std::find(vars.begin(), vars.end(), t.var);
        if (it != vars.end()) {
          terms.push_back(Term::C(values[it - vars.begin()]));
          continue;
        }
      }
      terms.push_back(t);
    }
    bound.AddAtom(atom.relation, std::move(terms));
  }
  return bound;
}

std::vector<AnswerLineage> ComputeAnswerLineages(
    const ConjunctiveQuery& query, const std::vector<VarId>& free_vars,
    PccInstance& pcc) {
  // Candidates: answers over the support instance (all facts present).
  std::set<std::vector<Value>> candidates =
      EvaluateAnswers(query, free_vars, pcc.instance());

  // Reuse one decomposition across all candidates.
  DecomposedInstance dec = DecomposeInstance(pcc.instance());
  std::vector<AnswerLineage> result;
  for (const std::vector<Value>& tuple : candidates) {
    GateId gate = ComputeCqLineageOnDecomposition(
        BindVariables(query, free_vars, tuple), pcc, dec.ntd,
        dec.facts_at_node);
    if (pcc.circuit().kind(gate) == GateKind::kConst &&
        !pcc.circuit().const_value(gate)) {
      continue;  // Impossible answer (cannot happen for support answers).
    }
    result.push_back(AnswerLineage{tuple, gate});
  }
  return result;
}

}  // namespace tud
