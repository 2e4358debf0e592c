// Theorem 5.5 differentials for the admission gate: connection-mode
// decisions against full CheckSecure re-audits, and edge-level decisions
// against the Corollary 5.6 endpoint audit, over random rule streams.

#include <gtest/gtest.h>

#include <vector>

#include "src/take_grant.h"
#include "tests/hierarchy/rule_stream.h"

namespace {

using tg::ProtectionGraph;
using tg::Right;
using tg::VertexId;

// One random candidate rule: a legal enumerated rule most of the time (so
// the stream actually exercises accept/veto), raw garbage otherwise (so it
// exercises rejection too).
tg::RuleApplication RandomAdmissionRule(const ProtectionGraph& g, tg_util::Prng& prng) {
  if (!prng.NextBool(0.35)) {
    std::vector<tg::RuleApplication> legal = EnumerateDeJure(g);
    std::vector<tg::RuleApplication> de_facto = EnumerateDeFacto(g);
    legal.insert(legal.end(), de_facto.begin(), de_facto.end());
    if (!legal.empty()) {
      return legal[prng.NextBelow(legal.size())];
    }
  }
  const auto pick = [&] { return static_cast<VertexId>(prng.NextBelow(g.VertexCount())); };
  static constexpr Right kRights[] = {Right::kRead, Right::kWrite, Right::kTake,
                                      Right::kGrant};
  tg::RightSet d = tg::RightSet::Of({kRights[prng.NextBelow(4)]});
  switch (prng.NextBelow(5)) {
    case 0:
      return tg::RuleApplication::Take(pick(), pick(), pick(), d);
    case 1:
      return tg::RuleApplication::Grant(pick(), pick(), pick(), d);
    case 2:
      return tg::RuleApplication::Create(
          pick(), prng.NextBool(0.3) ? tg::VertexKind::kSubject : tg::VertexKind::kObject, d);
    case 3:
      return tg::RuleApplication::Remove(pick(), pick(), d);
    default:
      return tg::RuleApplication::Post(pick(), pick(), pick());
  }
}

// Connection-mode gate decisions cross-checked against from-scratch
// CheckSecure verdicts on the would-be graph, for both audit engines:
//
//  * kRejected  => CheckRule fails on the current graph (and vice versa:
//    any rule reaching the restriction check was CheckRule-legal);
//  * kVetoed    => applying the rule anyway yields a CheckSecure-insecure
//    graph (the connection veto is exact — Theorem 5.5 soundness);
//  * kAccepted on a CheckSecure-secure graph leaves it secure (Theorem 5.5
//    completeness: a legal step whose new edge completes no forbidden
//    connection cannot introduce a violation that was not already
//    derivable).
//
// Seeds alternate clean hierarchies and hierarchies with planted
// cross-level channels, so both the always-secure path and the
// veto-under-latent-insecurity path get real traffic.  On top of that, a
// fixed 64-rule stream over a secure 24-vertex hierarchy is decided rule
// by rule against a per-operation re-audit (apply to a copy, keep the
// copy when CheckSecure passes): the gate must admit exactly the rules
// the re-audit admits and end on the same graph.
TEST(AdmissionFuzzTest, ConnectionGateDecisionsMatchFullReaudit) {
  for (tg_hier::AuditEngine engine :
       {tg_hier::AuditEngine::kDense, tg_hier::AuditEngine::kSharded}) {
    tg_util::Prng prng(engine == tg_hier::AuditEngine::kDense ? 811001 : 811002);
    size_t decisions = 0;
    size_t accepted = 0, vetoed = 0, rejected = 0;
    for (int round = 0; decisions < 10000; ++round) {
      tg_sim::HierarchicalGraphOptions options;
      options.levels = 2 + round % 2;
      options.clusters_per_level = 1;
      options.subjects_per_cluster = 3;
      options.objects_per_cluster = 2;
      options.tg_chords_per_cluster = 1;
      options.planted_channels = (round % 2 == 1) ? 2 : 0;
      tg_sim::GeneratedHierarchy seed = tg_sim::HierarchicalGraph(options, prng);
      auto gate = tg_hier::AdmissionGate::Create(seed.graph, seed.levels, {});
      ASSERT_EQ(gate->mode(), tg_hier::AdmissionMode::kConnection);
      bool cur_secure =
          tg_hier::CheckSecure(gate->graph(), gate->levels(), 0, nullptr, engine).secure;
      for (int step = 0; step < 150 && decisions < 10000; ++step) {
        tg::RuleApplication rule = RandomAdmissionRule(gate->graph(), prng);
        const bool legal = tg::CheckRule(gate->graph(), rule).ok();
        // The would-be graph: the current graph with the rule force-applied.
        ProtectionGraph would_be = gate->graph();
        tg::RuleApplication forced = rule;
        if (legal) {
          ASSERT_TRUE(tg::ApplyRule(would_be, forced).ok());
        }
        tg_hier::AdmissionDecision d = gate->Admit(rule);
        ++decisions;
        switch (d.outcome) {
          case tg_hier::AdmissionOutcome::kRejected:
            ++rejected;
            ASSERT_FALSE(legal) << "engine " << static_cast<int>(engine) << " round "
                                << round << " step " << step << ": gate rejected a "
                                << "CheckRule-legal rule: " << d.rule << " -- " << d.reason;
            break;
          case tg_hier::AdmissionOutcome::kVetoed: {
            ++vetoed;
            ASSERT_TRUE(legal);
            tg_hier::SecurityReport report =
                tg_hier::CheckSecure(would_be, gate->levels(), 0, nullptr, engine);
            ASSERT_FALSE(report.secure)
                << "engine " << static_cast<int>(engine) << " round " << round << " step "
                << step << ": veto of " << d.rule << " (" << d.reason
                << ") but the would-be graph re-audits secure";
            break;
          }
          case tg_hier::AdmissionOutcome::kAccepted: {
            ++accepted;
            ASSERT_TRUE(legal);
            bool now_secure =
                tg_hier::CheckSecure(gate->graph(), gate->levels(), 0, nullptr, engine)
                    .secure;
            ASSERT_TRUE(now_secure || !cur_secure)
                << "engine " << static_cast<int>(engine) << " round " << round << " step "
                << step << ": accepted " << d.rule
                << " turned a secure graph insecure (missed veto)";
            cur_secure = now_secure;
            break;
          }
        }
      }
    }
    ASSERT_GE(decisions, 10000u);
    // The stream must actually exercise all three verdicts.
    EXPECT_GT(accepted, 0u);
    EXPECT_GT(vetoed, 0u);
    EXPECT_GT(rejected, 0u);

    tg_util::Prng hierarchy_prng(9002);
    tg_sim::HierarchicalGraphOptions options;
    options.levels = 2;
    options.clusters_per_level = 2;
    options.subjects_per_cluster = 4;
    options.objects_per_cluster = 2;
    tg_sim::GeneratedHierarchy h = tg_sim::HierarchicalGraph(options, hierarchy_prng);
    const std::vector<tg::RuleApplication> stream =
        tg_test::FixedRuleStream(h.graph, 64, 77 + h.graph.VertexCount());
    const tg_test::Reaudit reaudit = tg_test::ReauditEachRule(h.graph, h.levels, stream, engine);
    auto gate = tg_hier::AdmissionGate::Create(h.graph, h.levels, {});
    for (size_t i = 0; i < stream.size(); ++i) {
      EXPECT_EQ(gate->Admit(stream[i]).accepted(), reaudit.admitted[i])
          << "engine " << static_cast<int>(engine) << " fixed stream rule " << i;
    }
    EXPECT_EQ(tg::DiffGraphs(gate->graph(), reaudit.final_graph).ChangeCount(), 0u)
        << "engine " << static_cast<int>(engine);
  }
}

// Edge-level (endpoint) gate decisions cross-checked against the
// Corollary 5.6 audit differential and against BishopRestrictionPolicy:
// a take/grant is vetoed iff the O(E) audit of the would-be graph reports
// more offending edges than the current graph's audit, and the gate's
// verdict on every legal rule matches the policy's Vet.  The stream is
// de jure only: de facto rules add *implicit* edges the whole-graph audit
// also covers, which would make the per-edge differential inexact (a
// vetoed explicit read-up over a pair already carrying a flagged implicit
// flow does not grow the edge count).  On a de-jure-only stream from a
// clean seed the equivalence is exact.
TEST(AdmissionFuzzTest, EdgeLevelGateMatchesCorollary56AuditDifferential) {
  tg_util::Prng prng(811003);
  size_t decisions = 0;
  size_t vetoed = 0;
  for (int round = 0; decisions < 10000; ++round) {
    tg_sim::HierarchicalGraphOptions options;
    options.levels = 2 + round % 2;
    options.clusters_per_level = 1;
    options.subjects_per_cluster = 3;
    options.objects_per_cluster = 2;
    options.tg_chords_per_cluster = 1;
    options.planted_channels = (round % 2 == 1) ? 2 : 0;
    tg_sim::GeneratedHierarchy seed = tg_sim::HierarchicalGraph(options, prng);
    tg_hier::AdmissionGate::Options gate_options;
    gate_options.mode = tg_hier::AdmissionMode::kEdgeLevel;
    auto gate = tg_hier::AdmissionGate::Create(seed.graph, seed.levels, gate_options);
    for (int step = 0; step < 150 && decisions < 10000; ++step) {
      tg::RuleApplication rule = RandomAdmissionRule(gate->graph(), prng);
      while (rule.kind != tg::RuleKind::kTake && rule.kind != tg::RuleKind::kGrant &&
             rule.kind != tg::RuleKind::kCreate && rule.kind != tg::RuleKind::kRemove) {
        rule = RandomAdmissionRule(gate->graph(), prng);
      }
      const bool legal = tg::CheckRule(gate->graph(), rule).ok();
      const bool is_transfer = rule.kind == tg::RuleKind::kTake ||
                               rule.kind == tg::RuleKind::kGrant;
      size_t audit_before =
          tg_hier::AuditBishopRestriction(gate->graph(), gate->levels()).size();
      size_t audit_after = audit_before;
      if (legal) {
        ProtectionGraph would_be = gate->graph();
        tg::RuleApplication forced = rule;
        ASSERT_TRUE(tg::ApplyRule(would_be, forced).ok());
        audit_after = tg_hier::AuditBishopRestriction(would_be, gate->levels()).size();
      }
      tg_hier::BishopRestrictionPolicy policy(gate->levels());
      bool policy_allows = legal && policy.Vet(gate->graph(), rule).ok();
      tg_hier::AdmissionDecision d = gate->Admit(rule);
      ++decisions;
      if (!legal) {
        ASSERT_EQ(d.outcome, tg_hier::AdmissionOutcome::kRejected) << d.rule;
        continue;
      }
      if (d.outcome == tg_hier::AdmissionOutcome::kVetoed) {
        ++vetoed;
        ASSERT_TRUE(is_transfer) << d.rule;
        ASSERT_GT(audit_after, audit_before)
            << "round " << round << " step " << step << ": endpoint veto of " << d.rule
            << " but the Corollary 5.6 audit of the would-be graph did not grow";
        ASSERT_FALSE(policy_allows) << d.rule;
      } else {
        ASSERT_EQ(d.outcome, tg_hier::AdmissionOutcome::kAccepted) << d.rule;
        ASSERT_EQ(audit_after, audit_before)
            << "round " << round << " step " << step << ": accepted " << d.rule
            << " added an edge the Corollary 5.6 audit flags";
        ASSERT_TRUE(policy_allows) << d.rule << " -- " << d.reason;
      }
    }
  }
  ASSERT_GE(decisions, 10000u);
  EXPECT_GT(vetoed, 0u);
}

}  // namespace
