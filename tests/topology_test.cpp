// Topology verification (verify/topology.h): .topo parsing, structural
// validation, query parsing, symbolic path enumeration over branching
// instance graphs, and the determinism contract (byte-identical JSON at
// any --jobs width). The 18-instance datacenter fabric shipped as
// examples/datacenter.topo doubles as the network-scale acceptance case.
#include <gtest/gtest.h>

#include <fstream>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "netsim/packet.h"
#include "obs/obs.h"
#include "symex/solver.h"
#include "tests/topology_test_util.h"
#include "verify/topology.h"
#include "verify/witness.h"

#ifndef NFACTOR_SOURCE_DIR
#error "tests/CMakeLists.txt must define NFACTOR_SOURCE_DIR"
#endif

namespace nfactor::verify {
namespace {

using testutil::corpus_models;
using testutil::pinnable_models;

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  EXPECT_TRUE(in) << "cannot read " << path;
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

// ---------------------------------------------------------------------------
// Parsing and validation
// ---------------------------------------------------------------------------

TEST(TopologyParse, RoundTripsTheFormat) {
  const std::string text =
      "# comment line\n"
      "node fw firewall\n"
      "node mon monitor   # trailing comment\n"
      "\n"
      "ingress in -> fw:0\n"
      "edge fw:1 -> mon:0\n"
      "edge fw:* -> mon:1\n"
      "egress out <- mon:1\n";
  const Topology topo = parse_topology(text, corpus_models().resolver());
  EXPECT_TRUE(topo.validate().empty());
  ASSERT_EQ(topo.nodes.size(), 2u);
  ASSERT_NE(topo.node("fw"), nullptr);
  EXPECT_EQ(topo.node("fw")->nf, "firewall");
  ASSERT_NE(topo.ingress_point("in"), nullptr);
  EXPECT_EQ(topo.ingress_point("in")->port, 0);
  ASSERT_NE(topo.egress_point("out"), nullptr);
  // Exact edge wins over the wildcard; wildcard catches the rest.
  ASSERT_NE(topo.edge_from("fw", 1), nullptr);
  EXPECT_EQ(topo.edge_from("fw", 1)->to_port, 0);
  ASSERT_NE(topo.edge_from("fw", 7), nullptr);
  EXPECT_EQ(topo.edge_from("fw", 7)->to_port, 1);
  EXPECT_EQ(topo.edge_from("mon", 3), nullptr);  // dangles
}

TEST(TopologyParse, AcceptsConfigPinsAndDottedQuads) {
  const std::string text =
      "node nat nat cfg INT_PORT=0 cfg EXT_IP=10.0.0.1\n"
      "node fw firewall\n"
      "ingress in -> nat:0\n"
      "edge nat:* -> fw:0\n"
      "egress out <- fw:*\n";
  const Topology topo = parse_topology(text, corpus_models().resolver(),
                                       pinnable_models().resolver());
  const TopoNode* nat = topo.node("nat");
  ASSERT_NE(nat, nullptr);
  ASSERT_EQ(nat->cfg.size(), 2u);
  EXPECT_EQ(nat->cfg.at("INT_PORT"), 0);
  EXPECT_EQ(nat->cfg.at("EXT_IP"),
            static_cast<std::int64_t>(netsim::ipv4("10.0.0.1")));
  // The pinned instance gets the model with symbolic config; the
  // unpinned one keeps the folded production model.
  EXPECT_EQ(nat->model, pinnable_models().resolve("nat").model);
  EXPECT_EQ(topo.node("fw")->model, corpus_models().resolve("firewall").model);
}

TEST(TopologyParse, RejectsMalformedInputWithLineNumbers) {
  // Like nf-verify's resolver: an unknown NF yields an empty NodeModels,
  // which the parser reports with the offending line number.
  const auto resolver = [](const std::string& nf) -> NodeModels {
    try {
      return corpus_models().resolve(nf);
    } catch (const std::exception&) {
      return {};
    }
  };
  // Each bad input throws and the message carries its line number.
  const std::vector<std::pair<std::string, std::string>> cases = {
      {"frob fw firewall\n", "line 1"},
      {"node fw firewall\nedge fw:x -> fw:0\n", "line 2"},
      {"node fw firewall\n\nedge fw:1 fw:0\n", "line 3"},
      {"node fw no_such_nf\n", "line 1"},
      {"node fw firewall cfg bogus\n", "line 1"},
      // A pin must name a config the model reads: firewall has no
      // INLINE_DROP.
      {"node fw firewall\n\nnode fw2 firewall cfg INLINE_DROP=1\n",
       "line 3"},
  };
  for (const auto& [text, needle] : cases) {
    SCOPED_TRACE(text);
    try {
      parse_topology(text, resolver, pinnable_models().resolver());
      FAIL() << "expected parse failure";
    } catch (const std::runtime_error& ex) {
      EXPECT_NE(std::string(ex.what()).find(needle), std::string::npos)
          << ex.what();
    }
  }
}

TEST(TopologyValidate, FlagsStructuralProblems) {
  const auto models = corpus_models().resolve("firewall");
  Topology topo;
  topo.nodes.push_back({"fw", "firewall", models.model, models.module, {}});
  topo.nodes.push_back({"fw", "firewall", models.model, models.module, {}});
  topo.edges.push_back({"fw", 1, "ghost", 0});
  topo.ingress.push_back({"in", "fw", 0});
  topo.egress.push_back({"in", "fw", 1});  // name collides with ingress
  const auto problems = topo.validate();
  EXPECT_GE(problems.size(), 3u);  // dup id, dangling edge, dup point name
}

// ---------------------------------------------------------------------------
// Query parsing
// ---------------------------------------------------------------------------

TEST(TopologyQueryParse, ParsesAllKindsAndWhereClauses) {
  Query q = parse_query("reach in out");
  EXPECT_EQ(q.kind, QueryKind::kReach);
  EXPECT_EQ(q.from, "in");
  EXPECT_EQ(q.to, "out");
  EXPECT_TRUE(q.where.empty());

  q = parse_query("waypoint in out via fw");
  EXPECT_EQ(q.kind, QueryKind::kWaypoint);
  EXPECT_EQ(q.via, "fw");

  q = parse_query(
      "isolate in out where pkt.ip_proto != 6 && pkt.dport <= 1024");
  EXPECT_EQ(q.kind, QueryKind::kIsolate);
  EXPECT_EQ(q.where.size(), 2u);
  EXPECT_FALSE(q.where_text.empty());

  q = parse_query("reach in out where pkt.ip_dst == 10.1.2.3");
  EXPECT_EQ(q.where.size(), 1u);
}

TEST(TopologyQueryParse, RejectsBadSpecs) {
  for (const std::string spec :
       {"", "reach in", "teleport in out", "reach in out via",
        "waypoint in out", "reach in out where pkt.bogus == 1",
        "reach in out where pkt.dport ~ 80"}) {
    SCOPED_TRACE(spec);
    EXPECT_THROW(parse_query(spec), std::runtime_error);
  }
}

// ---------------------------------------------------------------------------
// Small-graph queries
// ---------------------------------------------------------------------------

TEST(TopologyQuery, TwoHopChainReachAndIsolate) {
  const Topology topo = testutil::parse_chain({"firewall", "monitor"});
  QueryOptions opts;

  QueryResult reach = run_query(topo, parse_query("reach in out"), opts);
  EXPECT_TRUE(reach.sat);
  EXPECT_TRUE(reach.holds);
  ASSERT_FALSE(reach.paths.empty());
  EXPECT_EQ(reach.paths[0].hops.size(), 2u);
  EXPECT_EQ(reach.paths[0].hops[0].node, "h0");
  EXPECT_EQ(reach.paths[0].hops[1].node, "h1");

  // Isolation over the same pair is the negation.
  QueryResult iso = run_query(topo, parse_query("isolate in out"), opts);
  EXPECT_TRUE(iso.sat);
  EXPECT_FALSE(iso.holds);
}

TEST(TopologyQuery, WhereClauseShapesTheWitness) {
  const Topology topo = testutil::parse_chain({"firewall", "monitor"});
  const Query q = parse_query("reach in out where pkt.ip_proto == 17");
  const QueryResult result = run_query(topo, q, {});
  ASSERT_TRUE(result.sat);
  ReplayReport replay;
  const auto witness = find_witness(topo, result, &replay);
  ASSERT_TRUE(witness.has_value());
  EXPECT_TRUE(replay.consistent) << replay.detail;
  EXPECT_EQ(witness->ingress.ip_proto, 17);  // the where clause held
}

TEST(TopologyQuery, FanOutSplitsAcrossMirrorPorts) {
  // dpi multicasts exploit traffic: port 9 (mirror) feeds the alerts
  // monitor, port 1 (forward) the normal one.
  const std::string text =
      "node dpi dpi\n"
      "node mon_fwd monitor\n"
      "node mon_alert monitor\n"
      "ingress in -> dpi:0\n"
      "edge dpi:1 -> mon_fwd:0\n"
      "edge dpi:9 -> mon_alert:0\n"
      "egress out <- mon_fwd:1\n"
      "egress alerts <- mon_alert:1\n";
  const Topology topo = parse_topology(text, corpus_models().resolver());
  ASSERT_TRUE(topo.validate().empty());

  const QueryResult fwd = run_query(topo, parse_query("reach in out"), {});
  EXPECT_TRUE(fwd.sat);

  const QueryResult alert =
      run_query(topo, parse_query("reach in alerts"), {});
  EXPECT_TRUE(alert.sat);
  // Every delivered alerts path left the dpi on the mirror port.
  for (const auto& path : alert.paths) {
    ASSERT_FALSE(path.hops.empty());
    EXPECT_EQ(path.hops[0].node, "dpi");
    EXPECT_EQ(path.hops[0].out_port, 9);
  }
  // Non-TCP traffic can never hit the payload-inspection entries.
  const QueryResult quiet = run_query(
      topo, parse_query("isolate in alerts where pkt.ip_proto != 6"), {});
  EXPECT_TRUE(quiet.holds);
  EXPECT_FALSE(quiet.stats.truncated);
}

TEST(TopologyQuery, MaxHopsBoundsAndReportsTruncation) {
  const Topology topo = testutil::parse_chain(
      {"firewall", "monitor", "monitor", "monitor"});
  QueryOptions opts;
  opts.max_hops = 2;  // chain needs 4
  const QueryResult r = run_query(topo, parse_query("reach in out"), opts);
  EXPECT_FALSE(r.sat);
  EXPECT_TRUE(r.stats.truncated);
}

TEST(TopologyQuery, UnknownPointsThrow) {
  const Topology topo = testutil::parse_chain({"firewall"});
  EXPECT_THROW(run_query(topo, parse_query("reach nope out"), {}),
               std::runtime_error);
  EXPECT_THROW(run_query(topo, parse_query("reach in nope"), {}),
               std::runtime_error);
}

// ---------------------------------------------------------------------------
// Network-scale acceptance: the 18-instance datacenter fabric
// ---------------------------------------------------------------------------

TEST(TopologyDatacenter, AnswersReachabilityAndIsolationWithWitness) {
  const Topology topo = parse_topology(
      read_file(std::string(NFACTOR_SOURCE_DIR) + "/examples/datacenter.topo"),
      corpus_models().resolver());
  ASSERT_TRUE(topo.validate().empty());
  ASSERT_GE(topo.nodes.size(), 16u);

  symex::SolverCache cache;
  QueryOptions opts;
  opts.jobs = 4;
  opts.solver_cache = &cache;

  // End-to-end reachability through the 10-hop core pipeline, witnessed.
  const QueryResult reach =
      run_query(topo, parse_query("reach cust_a web_out"), opts);
  EXPECT_TRUE(reach.holds);
  ASSERT_TRUE(reach.sat);
  ReplayReport replay;
  const auto witness = find_witness(topo, reach, &replay);
  ASSERT_TRUE(witness.has_value());
  EXPECT_TRUE(replay.consistent) << replay.detail;
  EXPECT_EQ(replay.hops.size(), witness->hops.size());

  // Non-TCP traffic cannot reach the quarantine rack (fed only by the
  // core DPI's payload-inspection mirror) — a proof, not a sample.
  const QueryResult iso = run_query(
      topo, parse_query("isolate cust_a quarantine where pkt.ip_proto != 6"),
      opts);
  EXPECT_TRUE(iso.holds);
  EXPECT_FALSE(iso.stats.truncated);

  // Every web-bound path traverses the SYN-flood guard.
  const QueryResult wp =
      run_query(topo, parse_query("waypoint cust_a web_out via syn_guard"),
                opts);
  EXPECT_TRUE(wp.holds);

  // Cross-instance memoization: the shared cache absorbed repeat
  // verdicts across the three queries.
  const auto stats = cache.stats();
  EXPECT_GT(stats.hits, 0u);

#if NFACTOR_OBS_ENABLED
  auto& reg = obs::default_registry();
  EXPECT_GE(reg.counter("verify.topology.queries"), 3u);
  EXPECT_GT(reg.counter("verify.topology.frames"), 0u);
  EXPECT_GT(reg.counter("verify.topology.solver.queries"), 0u);
  EXPECT_GT(reg.gauge("verify.topology.cache.hit_rate"), 0.0);
#endif
}

// ---------------------------------------------------------------------------
// Determinism: byte-identical results at any jobs width
// ---------------------------------------------------------------------------

TEST(TopologyDeterminism, JsonIsByteIdenticalAcrossJobsWidths) {
  const Topology topo = parse_topology(
      read_file(std::string(NFACTOR_SOURCE_DIR) + "/examples/datacenter.topo"),
      corpus_models().resolver());

  for (const std::string spec :
       {"reach cust_a web_out", "isolate cust_a quarantine",
        "waypoint cust_b web_out via nat_core"}) {
    SCOPED_TRACE(spec);
    const Query q = parse_query(spec);

    symex::SolverCache cache1;
    QueryOptions o1;
    o1.jobs = 1;
    o1.solver_cache = &cache1;
    const QueryResult r1 = run_query(topo, q, o1);

    symex::SolverCache cache4;
    QueryOptions o4;
    o4.jobs = 4;
    o4.solver_cache = &cache4;
    const QueryResult r4 = run_query(topo, q, o4);

    EXPECT_EQ(r1.sat, r4.sat);
    EXPECT_EQ(r1.holds, r4.holds);
    EXPECT_EQ(r1.paths.size(), r4.paths.size());
    EXPECT_EQ(r1.stats.frames, r4.stats.frames);
    EXPECT_EQ(r1.stats.infeasible, r4.stats.infeasible);
    EXPECT_EQ(r1.stats.solver_queries, r4.stats.solver_queries);

    // The full JSON document — paths, hops, egress expressions — is
    // byte-identical; the witness is deterministic too, so include it.
    ReplayReport rep1, rep4;
    std::optional<Witness> w1, w4;
    if (r1.sat) w1 = find_witness(topo, r1, &rep1);
    if (r4.sat) w4 = find_witness(topo, r4, &rep4);
    EXPECT_EQ(w1.has_value(), w4.has_value());
    EXPECT_EQ(topology_json(topo, r1, w1 ? &*w1 : nullptr,
                            w1 ? &rep1 : nullptr),
              topology_json(topo, r4, w4 ? &*w4 : nullptr,
                            w4 ? &rep4 : nullptr));
  }
}

}  // namespace
}  // namespace nfactor::verify
