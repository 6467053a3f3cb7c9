// Tests of the benchmark's oracles against possible-world enumeration
// (ProbabilityByEnumeration) on instances small enough to enumerate,
// with and without observed facts. Exits non-zero on any mismatch.
//
//   oracle_test

#include <cmath>
#include <cstdio>
#include <deque>
#include <vector>

#include "oracle.h"
#include "uncertain/c_instance.h"
#include "uncertain/worlds.h"
#include "util/rng.h"

namespace perfbench {
namespace {

int failures = 0;

void Expect(double got, double want, const char* what, uint32_t a,
            uint32_t b) {
  if (std::fabs(got - want) > 1e-12) {
    std::fprintf(stderr, "%s(%u, %u): oracle %.17g, enumeration %.17g\n",
                 what, a, b, got, want);
    ++failures;
  }
}

/// P(predicate | observed) over the TID's worlds: event i is fact i.
template <typename Predicate>
double Enumerate(const tud::TidInstance& tid, const Observations& observed,
                 Predicate predicate) {
  const tud::CInstance pc = tid.ToPcInstance();
  auto holds = [&](const tud::Valuation& v) {
    for (const auto& [fact, present] : observed) {
      if (v.value(fact) != present) return false;
    }
    return predicate(v);
  };
  double joint = tud::ProbabilityByEnumeration(pc.events(), holds);
  double evidence = tud::ProbabilityByEnumeration(
      pc.events(), [&](const tud::Valuation& v) {
        for (const auto& [fact, present] : observed) {
          if (v.value(fact) != present) return false;
        }
        return true;
      });
  return joint / evidence;
}

bool Connected(const tud::Instance& instance, const tud::Valuation& v,
               uint32_t s, uint32_t t) {
  std::vector<char> seen(instance.DomainSize(), 0);
  std::deque<uint32_t> frontier{s};
  seen[s] = 1;
  while (!frontier.empty()) {
    const uint32_t x = frontier.front();
    frontier.pop_front();
    if (x == t) return true;
    for (tud::FactId f = 0; f < instance.NumFacts(); ++f) {
      if (!v.value(f)) continue;
      const auto& args = instance.fact(f).args;
      for (int side = 0; side < 2; ++side) {
        if (args[side] == x && !seen[args[1 - side]]) {
          seen[args[1 - side]] = 1;
          frontier.push_back(args[1 - side]);
        }
      }
    }
  }
  return false;
}

/// A ladder with every position filled (the last rung too) plus
/// `parallel` extra facts on random positions.
void CheckLadder(uint64_t seed, uint32_t rungs, uint32_t parallel,
                 bool with_observations) {
  tud::Rng rng(seed);
  tud::Schema schema;
  schema.AddRelation("E", 2);
  tud::TidInstance tid(schema);
  LadderModel model(rungs);
  std::vector<std::pair<uint32_t, uint32_t>> positions;
  for (uint32_t i = 0; i < rungs; ++i) {
    positions.push_back({2 * i, 2 * i + 1});
    if (i + 1 < rungs) {
      positions.push_back({2 * i, 2 * i + 2});
      positions.push_back({2 * i + 1, 2 * i + 3});
    }
  }
  for (uint32_t j = 0; j < parallel; ++j)
    positions.push_back(positions[rng.UniformInt(positions.size())]);
  for (const auto& [u, v] : positions) {
    const double p = 0.1 + 0.8 * rng.UniformDouble();
    const tud::FactId f = tid.AddFact(0, {u, v}, p);
    if (!model.AddFact(f, u, v, p)) {
      std::fprintf(stderr, "ladder position (%u, %u) refused\n", u, v);
      ++failures;
    }
  }
  std::vector<Observations> cases = {{}};
  if (with_observations) {
    for (uint32_t f = 0; f < positions.size(); ++f) {
      cases.push_back({{f, true}});
      cases.push_back({{f, false}});
    }
    cases.push_back({{0, true}, {1, false}});
  }
  for (const Observations& observed : cases) {
    for (uint32_t s = 0; s < 2 * rungs; ++s) {
      for (uint32_t t = 0; t < 2 * rungs; ++t) {
        Expect(model.Reachability(s, t, observed),
               Enumerate(tid, observed,
                         [&](const tud::Valuation& v) {
                           return Connected(tid.instance(), v, s, t);
                         }),
               "ladder reachability", s, t);
      }
    }
  }
}

/// A random TID over R(x), S(x, y), T(y) on `n` values, duplicates and
/// self-loops included.
void CheckBoundRst(uint64_t seed, uint32_t n, uint32_t facts,
                   bool with_observations) {
  tud::Rng rng(seed);
  tud::Schema schema;
  schema.AddRelation("R", 1);
  schema.AddRelation("S", 2);
  schema.AddRelation("T", 1);
  tud::TidInstance tid(schema);
  for (uint32_t j = 0; j < facts; ++j) {
    const double p = 0.1 + 0.8 * rng.UniformDouble();
    const uint32_t x = static_cast<uint32_t>(rng.UniformInt(n));
    const uint32_t y = static_cast<uint32_t>(rng.UniformInt(n));
    switch (j % 3) {
      case 0: tid.AddFact(0, {x}, p); break;
      case 1: tid.AddFact(1, {x, y}, p); break;
      default: tid.AddFact(2, {y}, p); break;
    }
  }
  const tud::Instance& instance = tid.instance();
  std::vector<Observations> cases = {{}};
  if (with_observations) {
    for (uint32_t f = 0; f < facts; ++f) {
      cases.push_back({{f, true}});
      cases.push_back({{f, false}});
    }
  }
  for (const Observations& observed : cases) {
    for (uint32_t c = 0; c < n; ++c) {
      auto holds = [&](const tud::Valuation& v) {
        bool r = false;
        for (tud::FactId f = 0; f < instance.NumFacts(); ++f)
          r = r || (v.value(f) && instance.fact(f).relation == 0 &&
                    instance.fact(f).args[0] == c);
        if (!r) return false;
        for (tud::FactId f = 0; f < instance.NumFacts(); ++f) {
          const tud::Fact& s = instance.fact(f);
          if (!v.value(f) || s.relation != 1 || s.args[0] != c) continue;
          for (tud::FactId g = 0; g < instance.NumFacts(); ++g) {
            const tud::Fact& t = instance.fact(g);
            if (v.value(g) && t.relation == 2 && t.args[0] == s.args[1])
              return true;
          }
        }
        return false;
      };
      Expect(BoundRstProbability(tid, c, observed),
             Enumerate(tid, observed, holds), "bound RST", c, 0);
    }
  }
}

}  // namespace
}  // namespace perfbench

int main() {
  using namespace perfbench;
  for (uint64_t seed = 1; seed <= 3; ++seed) {
    CheckLadder(seed, 2, 2, true);
    CheckLadder(seed, 3, 3, true);
    CheckLadder(seed, 4, 1, false);
    CheckBoundRst(seed, 4, 12, true);
    CheckBoundRst(seed, 3, 15, false);
  }
  // A ladder the oracle must refuse to extend: not a ladder position.
  LadderModel model(3);
  if (model.AddFact(0, 0, 3, 0.5) || model.AddFact(0, 4, 6, 0.5)) {
    std::fprintf(stderr, "non-ladder edge accepted\n");
    ++failures;
  }
  if (failures != 0) {
    std::fprintf(stderr, "oracle_test: %d failures\n", failures);
    return 1;
  }
  std::printf("oracle_test: ok\n");
  return 0;
}
