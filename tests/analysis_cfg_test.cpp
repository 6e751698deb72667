// Dominators, postdominators, control dependence, reaching definitions,
// and live variables — checked on hand-shaped CFGs lowered from small
// programs, plus axiom-style property checks over the corpus.
#include <gtest/gtest.h>

#include <algorithm>

#include "analysis/control_dep.h"
#include "analysis/dominators.h"
#include "analysis/live_vars.h"
#include "analysis/reaching_defs.h"
#include "lang/parser.h"
#include "nfs/corpus.h"
#include "tests/test_util.h"
#include "transform/normalize.h"

namespace nfactor::analysis {
namespace {

using testutil::lowered;
using testutil::nf_body;

ir::Module diamond() {
  return lowered(nf_body(
      "if (pkt.dport == 80) {\n  x = 1;\n} else {\n  x = 2;\n}\n"
      "send(pkt, x);"));
}

int find_node(const ir::Cfg& cfg, ir::InstrKind k, int nth = 0) {
  int seen = 0;
  for (const auto& n : cfg.nodes) {
    if (n->kind == k && seen++ == nth) return n->id;
  }
  return -1;
}

// ---------------------------------------------------------------------------
// Dominators
// ---------------------------------------------------------------------------

TEST(Dominators, EntryDominatesEverything) {
  const ir::Module m = diamond();
  const DomTree dom = dominators(m.body);
  for (const auto& n : m.body.nodes) {
    EXPECT_TRUE(dom.dominates(m.body.entry, n->id)) << n->id;
  }
}

TEST(Dominators, BranchDominatesBothArmsButNotJoin) {
  const ir::Module m = diamond();
  const DomTree dom = dominators(m.body);
  const int br = find_node(m.body, ir::InstrKind::kBranch);
  const int snd = find_node(m.body, ir::InstrKind::kSend);
  const auto& branch = m.body.node(br);
  EXPECT_TRUE(dom.dominates(br, branch.succs[0]));
  EXPECT_TRUE(dom.dominates(br, branch.succs[1]));
  EXPECT_TRUE(dom.dominates(br, snd));
  // Neither arm dominates the join.
  EXPECT_FALSE(dom.dominates(branch.succs[0], snd));
  EXPECT_FALSE(dom.dominates(branch.succs[1], snd));
  // idom of the join is the branch itself.
  EXPECT_EQ(dom.idom[static_cast<std::size_t>(snd)], br);
}

TEST(Dominators, SelfDominanceIsReflexive) {
  const ir::Module m = diamond();
  const DomTree dom = dominators(m.body);
  for (const auto& n : m.body.nodes) {
    EXPECT_TRUE(dom.dominates(n->id, n->id));
  }
}

TEST(Postdominators, ExitPostdominatesEverything) {
  const ir::Module m = diamond();
  const DomTree pdom = postdominators(m.body);
  for (const auto& n : m.body.nodes) {
    EXPECT_TRUE(pdom.dominates(m.body.exit, n->id)) << n->id;
  }
}

TEST(Postdominators, JoinPostdominatesBranch) {
  const ir::Module m = diamond();
  const DomTree pdom = postdominators(m.body);
  const int br = find_node(m.body, ir::InstrKind::kBranch);
  const int snd = find_node(m.body, ir::InstrKind::kSend);
  EXPECT_TRUE(pdom.dominates(snd, br));
  // The then-arm does not postdominate the branch.
  EXPECT_FALSE(pdom.dominates(m.body.node(br).succs[0], br));
}

/// Axiom check over every corpus NF: entry dominates all reachable nodes,
/// exit postdominates all, and idom is itself a dominator.
class DomAxioms : public ::testing::TestWithParam<const char*> {};

TEST_P(DomAxioms, HoldOnCorpusCfg) {
  const auto& e = nfs::find(GetParam());
  auto prog = transform::normalize(lang::parse(e.source, std::string(e.name)));
  const ir::Module m = ir::lower(std::move(prog));
  const DomTree dom = dominators(m.body);
  const DomTree pdom = postdominators(m.body);
  for (const auto& n : m.body.nodes) {
    if (!dom.reachable(n->id)) continue;
    EXPECT_TRUE(dom.dominates(m.body.entry, n->id));
    EXPECT_TRUE(pdom.dominates(m.body.exit, n->id));
    const int id = dom.idom[static_cast<std::size_t>(n->id)];
    EXPECT_TRUE(dom.dominates(id, n->id));
  }
}

INSTANTIATE_TEST_SUITE_P(Corpus, DomAxioms,
                         ::testing::Values("lb", "balance", "snort_lite",
                                           "nat", "firewall", "monitor",
                                           "l2_switch", "dpi", "heavy_hitter",
                                           "synflood"));

// ---------------------------------------------------------------------------
// Control dependence
// ---------------------------------------------------------------------------

bool depends(const ControlDeps& cd, int n, int branch) {
  const auto& row = cd.deps[static_cast<std::size_t>(n)];
  return std::binary_search(row.begin(), row.end(), branch);
}

TEST(ControlDep, ThenAndElseDependOnBranch) {
  const ir::Module m = diamond();
  const ControlDeps cd = control_dependence(m.body);
  const int br = find_node(m.body, ir::InstrKind::kBranch);
  const auto& branch = m.body.node(br);
  EXPECT_TRUE(depends(cd, branch.succs[0], br));
  EXPECT_TRUE(depends(cd, branch.succs[1], br));
}

TEST(ControlDep, JoinDoesNotDependOnBranch) {
  const ir::Module m = diamond();
  const ControlDeps cd = control_dependence(m.body);
  const int br = find_node(m.body, ir::InstrKind::kBranch);
  const int snd = find_node(m.body, ir::InstrKind::kSend);
  EXPECT_FALSE(depends(cd, snd, br));
}

TEST(ControlDep, LoopBodyDependsOnHeader) {
  const ir::Module m = lowered(nf_body(
      "i = 0;\nwhile (i < 3) {\n  i = i + 1;\n}\nsend(pkt, i);"));
  const ControlDeps cd = control_dependence(m.body);
  const int br = find_node(m.body, ir::InstrKind::kBranch);
  const auto& branch = m.body.node(br);
  EXPECT_TRUE(depends(cd, branch.succs[0], br));
}

TEST(ControlDep, NestedIfDependsOnBothBranches) {
  const ir::Module m = lowered(nf_body(
      "if (pkt.dport == 80) {\n  if (pkt.ip_ttl > 1) {\n    x = 1;\n  }\n}\n"
      "send(pkt, 0);"));
  const ControlDeps cd = control_dependence(m.body);
  const int outer = find_node(m.body, ir::InstrKind::kBranch, 0);
  const int inner = find_node(m.body, ir::InstrKind::kBranch, 1);
  // Find the x=1 node.
  int xnode = -1;
  for (const auto& n : m.body.nodes) {
    if (n->kind == ir::InstrKind::kAssign && n->var == "x") xnode = n->id;
  }
  ASSERT_NE(xnode, -1);
  EXPECT_TRUE(depends(cd, xnode, inner));
  EXPECT_TRUE(depends(cd, inner, outer));
  EXPECT_FALSE(depends(cd, xnode, outer));
}

// ---------------------------------------------------------------------------
// Reaching definitions
// ---------------------------------------------------------------------------

TEST(ReachingDefs, StrongDefKills) {
  const ir::Module m = lowered(nf_body(
      "x = 1;\nx = 2;\nsend(pkt, x);"));
  const ReachingDefs rd(m.body);
  const int snd = find_node(m.body, ir::InstrKind::kSend);
  const auto defs = rd.reaching_def_nodes(snd, "x");
  ASSERT_EQ(defs.size(), 1u);
  // Only the second assignment reaches.
  const int def = *defs.begin();
  EXPECT_EQ(lang::to_source(*m.body.node(def).value), "2");
}

TEST(ReachingDefs, BothArmsReachJoin) {
  const ir::Module m = diamond();
  const ReachingDefs rd(m.body);
  const int snd = find_node(m.body, ir::InstrKind::kSend);
  EXPECT_EQ(rd.reaching_def_nodes(snd, "x").size(), 2u);
}

TEST(ReachingDefs, WeakContainerUpdateDoesNotKill) {
  const ir::Module m = lowered(nf_body(
      "m[(pkt.ip_src, 1)] = 1;\nm[(pkt.ip_src, 2)] = 2;\n"
      "x = m[(pkt.ip_src, 1)];\nsend(pkt, x);",
      "var m = {};"));
  const ReachingDefs rd(m.body);
  int read_node = -1;
  for (const auto& n : m.body.nodes) {
    if (n->kind == ir::InstrKind::kAssign && n->var == "x") read_node = n->id;
  }
  // Both stores reach the read (weak updates accumulate).
  EXPECT_EQ(rd.reaching_def_nodes(read_node, "m").size(), 2u);
}

TEST(ReachingDefs, RecvKillsFieldDefsOfPacket) {
  // A field write in a previous iteration cannot reach across recv —
  // within one body CFG, recv is the first def of pkt.
  const ir::Module m = lowered(nf_body(
      "pkt.ip_ttl = 9;\nsend(pkt, pkt.ip_ttl);"));
  const ReachingDefs rd(m.body);
  const int snd = find_node(m.body, ir::InstrKind::kSend);
  const auto defs = rd.reaching_def_nodes(snd, "pkt.ip_ttl");
  // Reaching defs: the field store AND the recv (whole-packet def aliases).
  EXPECT_EQ(defs.size(), 2u);
}

TEST(ReachingDefs, FieldStoreKillsPriorFieldStore) {
  const ir::Module m = lowered(nf_body(
      "pkt.ip_ttl = 9;\npkt.ip_ttl = 7;\nsend(pkt, 0);"));
  const ReachingDefs rd(m.body);
  const int snd = find_node(m.body, ir::InstrKind::kSend);
  const auto defs = rd.reaching_def_nodes(snd, "pkt.ip_ttl");
  // Second store + recv; the first store is killed.
  EXPECT_EQ(defs.size(), 2u);
  for (const int d : defs) {
    if (m.body.node(d).kind == ir::InstrKind::kFieldStore) {
      EXPECT_EQ(lang::to_source(*m.body.node(d).value), "7");
    }
  }
}

TEST(LocationAlias, WholeVarAliasesItsFields) {
  EXPECT_TRUE(locations_alias("pkt", "pkt.ip_src"));
  EXPECT_TRUE(locations_alias("pkt.ip_src", "pkt"));
  EXPECT_TRUE(locations_alias("x", "x"));
  EXPECT_FALSE(locations_alias("pkt.ip_src", "pkt.ip_dst"));
  EXPECT_FALSE(locations_alias("pkt", "other"));
  EXPECT_FALSE(locations_alias("a.f", "b.f"));
}

// ---------------------------------------------------------------------------
// Live variables
// ---------------------------------------------------------------------------

TEST(LiveVars, UsedValueIsLiveBeforeUse) {
  const ir::Module m = lowered(nf_body("x = 7;\nsend(pkt, x);"));
  const LiveVars lv(m.body);
  int def = -1;
  for (const auto& n : m.body.nodes) {
    if (n->kind == ir::InstrKind::kAssign && n->var == "x") def = n->id;
  }
  EXPECT_TRUE(lv.live_out(def, "x"));
  EXPECT_FALSE(lv.live_in(def, "x"));
}

TEST(LiveVars, DeadStoreIsNotLive) {
  const ir::Module m = lowered(nf_body("dead = 7;\nsend(pkt, 0);"));
  const LiveVars lv(m.body);
  int def = -1;
  for (const auto& n : m.body.nodes) {
    if (n->kind == ir::InstrKind::kAssign && n->var == "dead") def = n->id;
  }
  EXPECT_FALSE(lv.live_out(def, "dead"));
}

TEST(LiveVars, LoopCarriedVariableStaysLive) {
  const ir::Module m = lowered(nf_body(
      "i = 0;\nwhile (i < 3) {\n  i = i + 1;\n}\nsend(pkt, i);"));
  const LiveVars lv(m.body);
  for (const auto& n : m.body.nodes) {
    if (n->kind == ir::InstrKind::kBranch) {
      EXPECT_TRUE(lv.live_in(n->id, "i"));
    }
  }
}

}  // namespace
}  // namespace nfactor::analysis
