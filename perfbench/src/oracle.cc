#include "oracle.h"

#include <array>
#include <map>

namespace perfbench {
namespace {

double ObservedProbability(uint32_t key, double p,
                           const Observations& observed) {
  for (const auto& [k, present] : observed) {
    if (k == key) return present ? 1.0 : 0.0;
  }
  return p;
}

/// Frontier state after a level: whether the two frontier vertices are
/// connected, and for s and t which frontier vertex their component
/// touches (0: not introduced yet, 1: left, 2: right; a connected
/// frontier always says left).
struct State {
  uint8_t joined = 0;
  uint8_t s = 0;
  uint8_t t = 0;
  int Index() const { return joined * 9 + s * 3 + t; }
};

struct Find4 {
  std::array<int, 4> parent{0, 1, 2, 3};
  int Root(int x) {
    while (parent[x] != x) x = parent[x];
    return x;
  }
  void Join(int a, int b) { parent[Root(a)] = Root(b); }
};

}  // namespace

int32_t LadderModel::PositionOf(uint32_t u, uint32_t v) const {
  if (u > v) std::swap(u, v);
  if (v >= 2 * rungs_) return -1;
  if (v == u + 1 && u % 2 == 0) return static_cast<int32_t>(3 * (u / 2));
  if (v == u + 2) return static_cast<int32_t>(3 * (u / 2) + 1 + u % 2);
  return -1;
}

bool LadderModel::AddFact(uint32_t key, uint32_t u, uint32_t v, double p) {
  const int32_t position = PositionOf(u, v);
  if (position < 0) return false;
  if (key >= facts_.size()) facts_.resize(key + 1);
  if (facts_[key].position >= 0) return false;
  facts_[key] = Fact{position, p};
  return true;
}

void LadderModel::SetProbability(uint32_t key, double p) {
  facts_.at(key).p = p;
}

double LadderModel::Reachability(uint32_t s, uint32_t t,
                                 const Observations& observed) const {
  if (s == t) return 1.0;
  if (s >= 2 * rungs_ || t >= 2 * rungs_) return 0.0;
  // Probability that each position holds at least one present fact.
  std::vector<double> absent(3 * rungs_, 1.0);
  for (uint32_t key = 0; key < facts_.size(); ++key) {
    const Fact& f = facts_[key];
    if (f.position < 0) continue;
    absent[f.position] *= 1.0 - ObservedProbability(key, f.p, observed);
  }
  auto present = [&](int64_t position) {
    return position < 0 ? 0.0 : 1.0 - absent[position];
  };

  // Level i introduces vertices 2i (slot 2) and 2i+1 (slot 3) next to
  // the previous frontier (slots 0 and 1), joined by the rails from
  // level i-1 and the rung of level i; then the previous frontier is
  // forgotten. A component of s or t that no longer touches the
  // frontier can never meet the other: that mass is dropped.
  std::array<double, 18> mass{};
  mass[State{}.Index()] = 1.0;
  double connected = 0.0;
  for (uint32_t level = 0; level < rungs_; ++level) {
    const int64_t prev = static_cast<int64_t>(level) - 1;
    const double p_edge[3] = {present(prev < 0 ? -1 : 3 * prev + 1),
                              present(prev < 0 ? -1 : 3 * prev + 2),
                              present(3 * static_cast<int64_t>(level))};
    std::array<double, 18> next{};
    for (int index = 0; index < 18; ++index) {
      if (mass[index] == 0.0) continue;
      const State from{static_cast<uint8_t>(index / 9),
                       static_cast<uint8_t>(index / 3 % 3),
                       static_cast<uint8_t>(index % 3)};
      for (int edges = 0; edges < 8; ++edges) {
        double p = mass[index];
        for (int e = 0; e < 3; ++e) {
          p *= (edges >> e & 1) ? p_edge[e] : 1.0 - p_edge[e];
        }
        if (p == 0.0) continue;
        Find4 uf;
        if (from.joined) uf.Join(0, 1);
        if (edges & 1) uf.Join(0, 2);
        if (edges & 2) uf.Join(1, 3);
        if (edges & 4) uf.Join(2, 3);
        auto slot_of = [&](uint32_t vertex, uint8_t at) {
          if (vertex == 2 * level) return 2;
          if (vertex == 2 * level + 1) return 3;
          return at == 0 ? -1 : at - 1;
        };
        const int s_slot = slot_of(s, from.s);
        const int t_slot = slot_of(t, from.t);
        if (s_slot >= 0 && t_slot >= 0 && uf.Root(s_slot) == uf.Root(t_slot)) {
          connected += p;
          continue;
        }
        State to;
        to.joined = uf.Root(2) == uf.Root(3);
        bool dead = false;
        auto frontier_of = [&](int slot) -> uint8_t {
          if (slot < 0) return 0;
          if (uf.Root(slot) == uf.Root(2)) return 1;
          if (uf.Root(slot) == uf.Root(3)) return 2;
          dead = true;
          return 0;
        };
        to.s = frontier_of(s_slot);
        to.t = frontier_of(t_slot);
        if (dead) continue;
        next[to.Index()] += p;
      }
    }
    mass = next;
  }
  return connected;
}

double BoundRstProbability(const tud::TidInstance& tid, tud::Value c,
                           const Observations& observed) {
  double r_absent = 1.0;
  std::map<tud::Value, double> s_absent;  // y -> P(no S(c, y) present)
  std::map<tud::Value, double> t_absent;  // y -> P(no T(y) present)
  const tud::Instance& instance = tid.instance();
  for (tud::FactId f = 0; f < instance.NumFacts(); ++f) {
    const tud::Fact& fact = instance.fact(f);
    const double q = 1.0 - ObservedProbability(f, tid.probability(f), observed);
    if (fact.relation == 0 && fact.args[0] == c) {
      r_absent *= q;
    } else if (fact.relation == 1 && fact.args[0] == c) {
      s_absent.try_emplace(fact.args[1], 1.0).first->second *= q;
    } else if (fact.relation == 2) {
      t_absent.try_emplace(fact.args[0], 1.0).first->second *= q;
    }
  }
  double no_witness = 1.0;
  for (const auto& [y, s_none] : s_absent) {
    auto it = t_absent.find(y);
    const double t_present = it == t_absent.end() ? 0.0 : 1.0 - it->second;
    no_witness *= 1.0 - (1.0 - s_none) * t_present;
  }
  return (1.0 - r_absent) * (1.0 - no_witness);
}

}  // namespace perfbench
