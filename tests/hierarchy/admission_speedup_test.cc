// Timing gate for Theorem 5.5 enforcement: an AdmissionGate decision must
// cost at most 1/50 of the Corollary 5.6 baseline, a full CheckSecure
// re-audit after each rule, on both the dense and the sharded engine at
// n = 4096 (min of 3 runs on every side).  The gate must also decide the
// shared prefix exactly as each re-audit did.

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <vector>

#include "src/take_grant.h"
#include "tests/hierarchy/rule_stream.h"

namespace {

using Clock = std::chrono::steady_clock;

double MsSince(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start).count();
}

TEST(AdmissionSpeedupTest, GateIsFiftyTimesFasterThanPerOperationReauditAtN4096) {
  tg_sim::HierarchicalGraphOptions options;
  options.levels = 8;
  options.clusters_per_level = 8;
  options.subjects_per_cluster = 48;
  options.objects_per_cluster = 16;
  options.planted_channels = 0;  // secure by construction: steady-state enforcement
  tg_util::Prng prng(9008);
  const tg_sim::GeneratedHierarchy h = tg_sim::HierarchicalGraph(options, prng);
  const size_t n = h.graph.VertexCount();
  ASSERT_EQ(n, 4096u);

  const std::vector<tg::RuleApplication> gate_rules =
      tg_test::FixedRuleStream(h.graph, 4096, 77 + n);
  // The re-audit decides a prefix of the same stream: a full audit per
  // operation makes the whole stream intractable.
  const std::vector<tg::RuleApplication> base_rules(gate_rules.begin(), gate_rules.begin() + 4);
  tg_hier::AdmissionGate::Options gate_options;
  gate_options.mode = tg_hier::AdmissionMode::kConnection;

  double gate_ms = 1e300;
  for (int rep = 0; rep < 3; ++rep) {
    auto gate = tg_hier::AdmissionGate::Create(h.graph, h.levels, gate_options);
    Clock::time_point t0 = Clock::now();
    for (const tg::RuleApplication& rule : gate_rules) {
      (void)gate->Admit(rule);
    }
    gate_ms = std::min(gate_ms, MsSince(t0));
  }
  const double gate_us_per_op = 1e3 * gate_ms / static_cast<double>(gate_rules.size());

  for (tg_hier::AuditEngine engine :
       {tg_hier::AuditEngine::kDense, tg_hier::AuditEngine::kSharded}) {
    const char* name = engine == tg_hier::AuditEngine::kDense ? "dense" : "sharded";
    tg_test::Reaudit best;
    best.ms_per_op = 1e300;
    for (int rep = 0; rep < 3; ++rep) {
      tg_test::Reaudit r = tg_test::ReauditEachRule(h.graph, h.levels, base_rules, engine);
      if (r.ms_per_op < best.ms_per_op) {
        best = std::move(r);
      }
    }
    auto check_gate = tg_hier::AdmissionGate::Create(h.graph, h.levels, gate_options);
    for (size_t i = 0; i < base_rules.size(); ++i) {
      EXPECT_EQ(check_gate->Admit(base_rules[i]).accepted(), best.admitted[i])
          << name << " rule " << i;
    }
    EXPECT_EQ(tg::DiffGraphs(check_gate->graph(), best.final_graph).ChangeCount(), 0u) << name;
    EXPECT_GE(best.ms_per_op * 1e3, 50.0 * gate_us_per_op)
        << "gate " << gate_us_per_op << " us/op vs " << name << " re-audit " << best.ms_per_op
        << " ms/op";
  }
}

}  // namespace
