// A seeded admission rule stream and the Corollary 5.6 baseline that
// decides it, shared by the admission-gate differential and the gate's
// timing test.

#ifndef TESTS_HIERARCHY_RULE_STREAM_H_
#define TESTS_HIERARCHY_RULE_STREAM_H_

#include <chrono>
#include <iterator>
#include <vector>

#include "src/hierarchy/levels.h"
#include "src/hierarchy/secure.h"
#include "src/tg/graph.h"
#include "src/tg/rules.h"
#include "src/util/prng.h"

namespace tg_test {

// A fixed stream pre-generated over g's initial vertices: an enumerated
// legal de jure rule 65% of the time, otherwise a random take, grant,
// remove or create, some of them illegal.
inline std::vector<tg::RuleApplication> FixedRuleStream(const tg::ProtectionGraph& g,
                                                        size_t count, uint64_t seed) {
  tg_util::Prng prng(seed);
  const std::vector<tg::RuleApplication> legal = tg::EnumerateDeJure(g);
  static constexpr tg::Right kRights[] = {tg::Right::kRead, tg::Right::kWrite, tg::Right::kTake,
                                         tg::Right::kGrant};
  const auto pick = [&] { return static_cast<tg::VertexId>(prng.NextBelow(g.VertexCount())); };
  std::vector<tg::RuleApplication> stream;
  while (stream.size() < count) {
    if (!legal.empty() && prng.NextBelow(100) < 65) {
      stream.push_back(legal[prng.NextBelow(legal.size())]);
      continue;
    }
    const tg::VertexId a = pick();
    const tg::VertexId b = pick();
    const tg::VertexId c = pick();
    const tg::RightSet d(kRights[prng.NextBelow(std::size(kRights))]);
    switch (prng.NextBelow(4)) {
      case 0:
        stream.push_back(tg::RuleApplication::Take(a, b, c, d));
        break;
      case 1:
        stream.push_back(tg::RuleApplication::Grant(a, b, c, d));
        break;
      case 2:
        stream.push_back(tg::RuleApplication::Remove(a, b, d));
        break;
      default:
        stream.push_back(tg::RuleApplication::Create(
            a, prng.NextBelow(100) < 30 ? tg::VertexKind::kSubject : tg::VertexKind::kObject, d));
        break;
    }
  }
  return stream;
}

// The Corollary 5.6 baseline: apply each legal rule to a copy, run the
// full CheckSecure audit on `engine`, and keep the copy only when it
// stays secure.
struct Reaudit {
  std::vector<bool> admitted;
  tg::ProtectionGraph final_graph;
  double ms_per_op = 0.0;
};

inline Reaudit ReauditEachRule(const tg::ProtectionGraph& start,
                               const tg_hier::LevelAssignment& levels,
                               const std::vector<tg::RuleApplication>& rules,
                               tg_hier::AuditEngine engine) {
  Reaudit result;
  result.final_graph = start;
  const auto t0 = std::chrono::steady_clock::now();
  for (const tg::RuleApplication& rule : rules) {
    bool admit = false;
    if (tg::CheckRule(result.final_graph, rule).ok()) {
      tg::ProtectionGraph scratch = result.final_graph;
      tg::RuleApplication applied = rule;
      if (tg::ApplyRule(scratch, applied).ok() &&
          tg_hier::CheckSecure(scratch, levels, 1, nullptr, engine).secure) {
        result.final_graph = std::move(scratch);
        admit = true;
      }
    }
    result.admitted.push_back(admit);
  }
  result.ms_per_op =
      std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - t0).count() /
      static_cast<double>(rules.size());
  return result;
}

}  // namespace tg_test

#endif  // TESTS_HIERARCHY_RULE_STREAM_H_
