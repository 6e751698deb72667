// Verification applications: equivalence checking, stateful header-space
// reachability over service chains, PGA-style composition, BUZZ-style
// compliance testing.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "netsim/packet_gen.h"
#include "nfactor/pipeline.h"
#include "nfs/corpus.h"
#include "tests/test_util.h"
#include "tests/topology_test_util.h"
#include "verify/chain.h"
#include "verify/compliance.h"
#include "verify/equivalence.h"
#include "verify/topology.h"

namespace nfactor::verify {
namespace {

pipeline::PipelineResult run_nf(const char* name) {
  return pipeline::run_source(nfs::find(name).source, name);
}

// ---------------------------------------------------------------------------
// Differential equivalence
// ---------------------------------------------------------------------------

TEST(Equivalence, DetectsSabotagedModel) {
  auto r = run_nf("firewall");
  // Sabotage: delete the LAN->WAN forwarding entry's action.
  for (auto& e : r.model.entries) {
    if (!e.is_drop()) {
      e.flow_action.clear();
      break;
    }
  }
  netsim::PacketGen gen(5);
  const auto diff =
      differential_test(*r.module, r.cats, r.model, gen.batch(200));
  EXPECT_GT(diff.mismatches, 0);
  EXPECT_FALSE(diff.details.empty());
}

TEST(Equivalence, DetectsSabotagedStateUpdate) {
  auto r = run_nf("lb");
  for (auto& e : r.model.entries) e.state_action.clear();
  netsim::PacketGen gen(6);
  const auto diff =
      differential_test(*r.module, r.cats, r.model, gen.batch(200));
  EXPECT_GT(diff.mismatches, 0);
}

TEST(Equivalence, ActionSignatureIgnoresLogState) {
  const auto r = run_nf("lb");
  for (const auto& p : r.slice_paths) {
    const std::string sig = action_signature(p, r.cats);
    EXPECT_EQ(sig.find("pass_stat"), std::string::npos);
    EXPECT_EQ(sig.find("drop_stat"), std::string::npos);
  }
}

TEST(Equivalence, CompareActionSetsSymmetric) {
  const auto r = run_nf("nat");
  const auto cmp = compare_action_sets(r.slice_paths, r.slice_paths, r.cats);
  EXPECT_TRUE(cmp.equal());
  EXPECT_GT(cmp.common, 0u);

  const auto empty = compare_action_sets(r.slice_paths, {}, r.cats);
  EXPECT_FALSE(empty.equal());
  EXPECT_EQ(empty.only_in_b.size(), 0u);
  EXPECT_GT(empty.only_in_a.size(), 0u);
}

TEST(Equivalence, UnderConfigEmptyVsAbsentPathSet) {
  const auto r = run_nf("nat");
  const auto bindings = config_bindings(*r.module);

  // Absent specialized side: every surviving full behavior is missing,
  // and nothing can be "extra" on an empty side.
  const auto absent = compare_action_sets_under_config(
      r.slice_paths, {}, r.cats, r.cats, bindings);
  EXPECT_FALSE(absent.equal());
  EXPECT_TRUE(absent.only_in_b.empty());
  EXPECT_GT(absent.only_in_a.size(), 0u);
  EXPECT_EQ(absent.common, 0u);

  // Both sides empty (the table is absent on both ends): trivially
  // equal with zero common signatures — not an error.
  const auto both =
      compare_action_sets_under_config({}, {}, r.cats, r.cats, bindings);
  EXPECT_TRUE(both.equal());
  EXPECT_EQ(both.common, 0u);
}

TEST(Equivalence, UnderConfigPermutedPathOrderIsEquivalent) {
  // Action-set comparison is over deduplicated signature *sets*: the
  // order paths were enumerated in must not matter.
  const auto& e = nfs::find("firewall");
  pipeline::PipelineOptions nofold;
  nofold.simplify.enabled = false;
  nofold.simplify.fold_config = false;
  pipeline::PipelineOptions fold;
  fold.simplify.enabled = true;
  fold.simplify.fold_config = true;
  const auto full = pipeline::run_source(e.source, "full", nofold);
  const auto spec = pipeline::run_source(e.source, "spec", fold);

  auto permuted = spec.slice_paths;
  std::reverse(permuted.begin(), permuted.end());
  const auto bindings = config_bindings(*full.module);
  const auto cmp = compare_action_sets_under_config(
      full.slice_paths, permuted, full.cats, spec.cats, bindings);
  EXPECT_TRUE(cmp.equal()) << "only_in_full=" << cmp.only_in_a.size()
                           << " only_in_permuted=" << cmp.only_in_b.size();
  EXPECT_GT(cmp.common, 0u);
}

TEST(Equivalence, UnderConfigDetectsConfigOnlyDivergence) {
  // Two programs identical except for one config initializer: under the
  // full side's bindings the folded side's behavior must NOT match.
  const std::string a = testutil::nf_body("send(pkt, OUT);\n    return;",
                                          "var OUT = 1;");
  const std::string b = testutil::nf_body("send(pkt, OUT);\n    return;",
                                          "var OUT = 2;");
  pipeline::PipelineOptions nofold;
  nofold.simplify.enabled = false;
  nofold.simplify.fold_config = false;
  pipeline::PipelineOptions fold;
  fold.simplify.enabled = true;
  fold.simplify.fold_config = true;
  const auto full = pipeline::run_source(a, "a", nofold);
  const auto spec = pipeline::run_source(b, "b", fold);

  const auto bindings = config_bindings(*full.module);
  const auto cmp = compare_action_sets_under_config(
      full.slice_paths, spec.slice_paths, full.cats, spec.cats, bindings);
  EXPECT_FALSE(cmp.equal());
  EXPECT_GT(cmp.only_in_a.size(), 0u);
  EXPECT_GT(cmp.only_in_b.size(), 0u);
}

// ---------------------------------------------------------------------------
// Stateful header-space reachability over a service chain: a chain is a
// path Topology, written as .topo text and answered by run_query.
// ---------------------------------------------------------------------------

/// Answer `query` over `topo`, with corpus models synthesized without
/// config folding so a `cfg` pin selects the table the deployment runs.
QueryResult chain_query(const std::string& topo, const std::string& query,
                        std::size_t max_paths = 64) {
  QueryOptions opts;
  opts.max_paths = max_paths;
  const auto models = testutil::pinnable_models().resolver();
  return run_query(parse_topology(topo, models), parse_query(query), opts);
}

TEST(Hsa, SingleHopFirewallForwardsLanTraffic) {
  const auto res = chain_query(
      "node fw firewall\ningress in -> fw:0\negress out <- fw:*\n",
      "reach in out");
  EXPECT_TRUE(res.holds);
}

constexpr const char* kInlineIds =
    "node ids snort_lite cfg INLINE_DROP=1\n"
    "ingress in -> ids:*\negress out <- ids:*\n";

TEST(Hsa, IngressConstraintCanBlockEverything) {
  // TCP telnet is rule-dropped.
  EXPECT_FALSE(chain_query(kInlineIds,
                           "reach in out where pkt.ip_proto == 6 && "
                           "pkt.dport == 23")
                   .sat);
  // TCP 443 passes.
  EXPECT_TRUE(chain_query(kInlineIds,
                          "reach in out where pkt.ip_proto == 6 && "
                          "pkt.dport == 443 && pkt.eth_type == 0x0800")
                  .sat);
}

TEST(Hsa, ConfigPinSelectsTable) {
  // In alert-only mode even telnet passes through.
  EXPECT_TRUE(chain_query("node ids snort_lite cfg INLINE_DROP=0\n"
                          "ingress in -> ids:*\negress out <- ids:*\n",
                          "reach in out where pkt.ip_proto == 6 && "
                          "pkt.dport == 23 && pkt.eth_type == 0x0800")
                  .sat);
}

TEST(Hsa, RewritesPropagateToNextHop) {
  // NAT rewrites ip_src to EXT_IP=5.5.5.5; a downstream firewall-style
  // model matching the original source address must become unreachable.
  const auto res = chain_query(
      "node nat nat\ningress in -> nat:0\negress out <- nat:*\n",
      "reach in out", 8);
  ASSERT_TRUE(res.sat);
  bool rewrote = false;
  for (const auto& p : res.paths) {
    const auto it = p.egress_fields.find("pkt.ip_src");
    ASSERT_NE(it, p.egress_fields.end());
    // The egress source address is the NAT's (prefixed) EXT_IP config
    // symbol — no longer the ingress pkt.ip_src.
    if (symex::to_string(*it->second).find("EXT_IP") != std::string::npos) {
      rewrote = true;
    }
  }
  EXPECT_TRUE(rewrote);
}

TEST(Hsa, TwoInstancesOfSameNfKeepDisjointState) {
  const auto res = chain_query(
      "node fw_a firewall\nnode fw_b firewall\n"
      "ingress in -> fw_a:0\nedge fw_a:* -> fw_b:0\negress out <- fw_b:*\n",
      "reach in out", 16);
  ASSERT_TRUE(res.sat);
  // State symbols carry each instance's own prefix, never both.
  for (const auto& p : res.paths) {
    bool a = false, b = false;
    for (const auto& c : p.constraints) {
      const std::string s = c->key();
      a |= s.find("fw_a$") != std::string::npos;
      b |= s.find("fw_b$") != std::string::npos;
      EXPECT_EQ(s.find("fw_a$fw_b"), std::string::npos) << s;
      EXPECT_EQ(s.find("fw_b$fw_a"), std::string::npos) << s;
    }
    EXPECT_TRUE(a && b);
  }
}

TEST(Hsa, HopIngressPortPinning) {
  // Pin the hop's ingress to the LAN port: the LAN->WAN entry matches
  // with the in_port test fully resolved (no in_port symbol survives).
  const auto lan = chain_query(
      "node fw firewall\ningress in -> fw:0\negress out <- fw:*\n",
      "reach in out", 8);
  ASSERT_TRUE(lan.sat);
  for (const auto& p : lan.paths) {
    for (const auto& c : p.constraints) {
      EXPECT_EQ(c->key().find("pkt.in_port"), std::string::npos)
          << symex::to_string(*c);
    }
  }

  // Pinned to a non-LAN port (with the LAN_PORT config also pinned so
  // the deployment is fixed), only the established-connection entry can
  // deliver — every surviving path must constrain the connection table.
  const auto wan = chain_query(
      "node fw firewall cfg LAN_PORT=0\n"
      "ingress in -> fw:7\negress out <- fw:*\n",
      "reach in out", 8);
  for (const auto& p : wan.paths) {
    bool mentions_conns = false;
    for (const auto& c : p.constraints) {
      if (c->key().find("conns") != std::string::npos) mentions_conns = true;
    }
    EXPECT_TRUE(mentions_conns);
  }
}

TEST(Hsa, InfeasibleCountsReported) {
  // A rule-dropped flow: every forwarding entry is infeasible under the
  // inline-drop configuration.
  const auto res = chain_query(
      kInlineIds, "reach in out where pkt.ip_proto == 6 && pkt.dport == 23",
      8);
  EXPECT_FALSE(res.sat);
  EXPECT_GT(res.stats.infeasible, 0u);
}

// ---------------------------------------------------------------------------
// PGA-style composition
// ---------------------------------------------------------------------------

TEST(Compose, IoSpacesReflectModels) {
  const auto lb = run_nf("lb");
  const auto io = io_space(lb.model);
  EXPECT_TRUE(io.fields_matched.count("pkt.dport"));
  EXPECT_TRUE(io.fields_rewritten.count("pkt.ip_dst"));
  EXPECT_TRUE(io.fields_rewritten.count("pkt.sport"));

  const auto fw = run_nf("firewall");
  const auto fio = io_space(fw.model);
  EXPECT_TRUE(fio.fields_matched.count("pkt.in_port"));
  EXPECT_TRUE(fio.fields_rewritten.empty());
}

TEST(Compose, MatcherPrecedesRewriter) {
  const auto fw = run_nf("firewall");
  const auto ids = run_nf("snort_lite");
  const auto lb = run_nf("lb");
  const auto advice = advise_order(
      {{"lb", &lb.model}, {"fw", &fw.model}, {"ids", &ids.model}});
  ASSERT_EQ(advice.order.size(), 3u);
  EXPECT_FALSE(advice.has_cycle);
  // lb (the rewriter) must come last.
  EXPECT_EQ(advice.order.back(), "lb");
  // Constraints actually mention the port conflict.
  bool ids_before_lb = false;
  for (const auto& c : advice.constraints) {
    if (c.before == "ids" && c.after == "lb") ids_before_lb = true;
  }
  EXPECT_TRUE(ids_before_lb);
}

TEST(Compose, CycleDetected) {
  // Two NATs that each match on and rewrite the same field force a cycle.
  const auto nat = run_nf("nat");
  const auto advice = advise_order(
      {{"nat_a", &nat.model}, {"nat_b", &nat.model}});
  EXPECT_TRUE(advice.has_cycle);
  EXPECT_EQ(advice.order.size(), 2u);  // still emits a best-effort order
}

TEST(Compose, SingleNfTrivial) {
  const auto fw = run_nf("firewall");
  const auto advice = advise_order({{"fw", &fw.model}});
  EXPECT_EQ(advice.order, (std::vector<std::string>{"fw"}));
  EXPECT_TRUE(advice.constraints.empty());
}

// ---------------------------------------------------------------------------
// Compliance testing
// ---------------------------------------------------------------------------

class ComplianceOnCorpus : public ::testing::TestWithParam<const char*> {};

TEST_P(ComplianceOnCorpus, NoGeneratedTestFails) {
  const auto r = run_nf(GetParam());
  const auto rep = run_compliance(*r.module, r.model);
  EXPECT_EQ(rep.failed, 0) << rep.summary();
  EXPECT_GT(rep.passed, 0) << rep.summary();
  EXPECT_EQ(rep.cases.size(), r.model.entries.size());
}

INSTANTIATE_TEST_SUITE_P(Corpus, ComplianceOnCorpus,
                         ::testing::Values("lb", "nat", "firewall", "dpi",
                                           "monitor", "snort_lite", "heavy_hitter",
                                           "synflood"));

TEST(Compliance, NatCoversAllEntriesWithPriming) {
  const auto r = run_nf("nat");
  const auto rep = run_compliance(*r.module, r.model);
  EXPECT_EQ(rep.passed, static_cast<int>(r.model.entries.size()));
  // The reverse-path entry needs a priming packet.
  bool multi_step = false;
  for (const auto& tc : rep.cases) {
    if (tc.sequence.size() > 1) multi_step = true;
  }
  EXPECT_TRUE(multi_step);
}

TEST(Compliance, LbHashEntrySkippedUnderRrConfig) {
  const auto r = run_nf("lb");
  const auto rep = run_compliance(*r.module, r.model);
  EXPECT_GT(rep.config_skipped, 0);  // the mode != ROUND_ROBIN table
}

TEST(Compliance, StatusNamesReadable) {
  EXPECT_EQ(to_string(CaseStatus::kPassed), "passed");
  EXPECT_EQ(to_string(CaseStatus::kFailed), "failed");
  EXPECT_EQ(to_string(CaseStatus::kUncovered), "uncovered");
  EXPECT_EQ(to_string(CaseStatus::kConfigSkip), "config-skip");
}

TEST(Compliance, SummaryCountsAddUp) {
  const auto r = run_nf("firewall");
  const auto rep = run_compliance(*r.module, r.model);
  EXPECT_EQ(rep.passed + rep.failed + rep.uncovered + rep.config_skipped,
            static_cast<int>(rep.cases.size()));
  EXPECT_NE(rep.summary().find("passed"), std::string::npos);
}

}  // namespace
}  // namespace nfactor::verify
