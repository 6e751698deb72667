// Static slicing (PDG backward closure) and dynamic slicing.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>

#include "analysis/def_use.h"
#include "analysis/dynamic_slice.h"
#include "analysis/pdg.h"
#include "fuzz/program_gen.h"
#include "lang/diagnostics.h"
#include "nfactor/pipeline.h"
#include "nfs/corpus.h"
#include "runtime/interp.h"
#include "tests/test_util.h"

namespace nfactor::analysis {
namespace {

using testutil::lowered;
using testutil::nf_body;

int find_send(const ir::Cfg& cfg) {
  for (const auto& n : cfg.nodes) {
    if (n->kind == ir::InstrKind::kSend) return n->id;
  }
  return -1;
}

TEST(Slicer, CriterionAlwaysInSlice) {
  const ir::Module m = lowered(nf_body("x = 1;\nsend(pkt, x);"));
  const Pdg pdg(m.body);
  const int snd = find_send(m.body);
  EXPECT_TRUE(pdg.backward_slice(snd).count(snd));
}

TEST(Slicer, PicksUpDataDependenceChain) {
  const ir::Module m = lowered(nf_body(
      "a = pkt.dport;\nb = a + 1;\nc = b * 2;\nunrelated = 99;\n"
      "send(pkt, c);"));
  const Pdg pdg(m.body);
  const auto slice = pdg.backward_slice(find_send(m.body));
  int in_slice_assigns = 0;
  bool unrelated_in = false;
  for (const int id : slice) {
    const auto& n = m.body.node(id);
    if (n.kind == ir::InstrKind::kAssign) {
      ++in_slice_assigns;
      if (n.var == "unrelated") unrelated_in = true;
    }
  }
  EXPECT_EQ(in_slice_assigns, 3);  // a, b, c
  EXPECT_FALSE(unrelated_in);
}

TEST(Slicer, IncludesControllingBranches) {
  const ir::Module m = lowered(nf_body(
      "x = 0;\nif (pkt.dport == 80) {\n  x = 1;\n}\nsend(pkt, x);"));
  const Pdg pdg(m.body);
  const auto slice = pdg.backward_slice(find_send(m.body));
  bool branch_in = false;
  for (const int id : slice) {
    if (m.body.node(id).kind == ir::InstrKind::kBranch) branch_in = true;
  }
  EXPECT_TRUE(branch_in);
}

TEST(Slicer, ExcludesLogOnlyCode) {
  const ir::Module m = lowered(nf_body(
      "stat = stat + 1;\nlog(\"count\", stat);\nsend(pkt, 1);",
      "var stat = 0;"));
  const Pdg pdg(m.body);
  const auto slice = pdg.backward_slice(find_send(m.body));
  for (const int id : slice) {
    const auto& n = m.body.node(id);
    EXPECT_NE(n.kind, ir::InstrKind::kCall);  // the log() call
    if (n.kind == ir::InstrKind::kAssign) {
      EXPECT_NE(n.var, "stat");
    }
  }
}

TEST(Slicer, LocSpecificCriterionNarrowsSeeds) {
  const ir::Module m = lowered(nf_body(
      "a = pkt.dport;\nb = pkt.ip_ttl;\nsend(pkt, a + b);"));
  const Pdg pdg(m.body);
  const int snd = find_send(m.body);
  const auto only_a = pdg.backward_slice(snd, {"a"});
  bool b_in = false;
  for (const int id : only_a) {
    const auto& n = m.body.node(id);
    if (n.kind == ir::InstrKind::kAssign && n.var == "b") b_in = true;
  }
  EXPECT_FALSE(b_in);
}

/// Dependence-closure property over all corpus NFs: every slice is closed
/// under data and control dependences, and slicing is idempotent.
class SliceClosure : public ::testing::TestWithParam<const char*> {};

TEST_P(SliceClosure, SlicesAreDependenceClosed) {
  const auto r = pipeline::run_source(nfs::find(GetParam()).source,
                                      GetParam());
  const Pdg& pdg = *r.pdg;
  for (const std::set<int>* slice :
       {&r.pkt_slice, &r.state_slice, &r.union_slice}) {
    for (const int id : *slice) {
      for (const int d : pdg.data_deps(id)) {
        EXPECT_TRUE(slice->count(d))
            << "data dep " << d << " of " << id << " missing";
      }
      for (const int c : pdg.control_deps(id)) {
        EXPECT_TRUE(slice->count(c))
            << "control dep " << c << " of " << id << " missing";
      }
    }
  }
}

TEST_P(SliceClosure, EverySendIsInThePacketSlice) {
  const auto r = pipeline::run_source(nfs::find(GetParam()).source,
                                      GetParam());
  for (const auto& n : r.module->body.nodes) {
    if (n->kind == ir::InstrKind::kSend) {
      EXPECT_TRUE(r.pkt_slice.count(n->id));
    }
  }
}

TEST_P(SliceClosure, SliceIsSubsetOfProgram) {
  const auto r = pipeline::run_source(nfs::find(GetParam()).source,
                                      GetParam());
  EXPECT_LE(r.union_slice.size(), r.module->body.size());
  EXPECT_LE(r.loc_slice, r.loc_orig);
}

INSTANTIATE_TEST_SUITE_P(Corpus, SliceClosure,
                         ::testing::Values("lb", "balance", "snort_lite",
                                           "nat", "firewall", "monitor",
                                           "l2_switch", "dpi", "heavy_hitter",
                                           "synflood"));

// ---------------------------------------------------------------------------
// Multi-criterion slices, pinned slice sizes at scale, and the transitive
// output-impacting closure
// ---------------------------------------------------------------------------

std::string fuzz_fixture(const std::string& file) {
  std::ifstream in(std::string(NFACTOR_SOURCE_DIR) + "/tests/fixtures/fuzz/" +
                   file);
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

/// backward_slice(set) must equal the union of the single-criterion
/// slices, whatever the criteria: every send, every state update, every
/// node.
void expect_set_slice_is_union(const pipeline::PipelineResult& r) {
  const ir::Cfg& body = r.module->body;
  std::set<int> sends, updates, all;
  for (const auto& n : body.nodes) {
    all.insert(n->id);
    if (n->kind == ir::InstrKind::kSend) sends.insert(n->id);
    for (const auto& d : n->defs()) {
      std::string base;
      if (!ir::split_field_loc(d, &base, nullptr)) base = d;
      if (r.module->persistent.count(base)) updates.insert(n->id);
    }
  }
  for (const std::set<int>* criteria : {&sends, &updates, &all}) {
    std::set<int> expected;
    for (const int c : *criteria) {
      const auto s = r.pdg->backward_slice(c);
      expected.insert(s.begin(), s.end());
    }
    EXPECT_EQ(r.pdg->backward_slice(*criteria), expected)
        << criteria->size() << " criteria";
  }
}

TEST(MultiCriterionSlice, EqualsUnionOfSingleSlicesOnCorpus) {
  for (const char* nf : {"lb", "balance", "snort_lite", "nat", "firewall",
                         "monitor", "l2_switch", "dpi", "heavy_hitter",
                         "synflood"}) {
    SCOPED_TRACE(nf);
    expect_set_slice_is_union(pipeline::run_source(nfs::find(nf).source, nf));
  }
}

TEST(MultiCriterionSlice, EqualsUnionOfSingleSlicesOnFuzzFixtures) {
  int seen = 0;
  for (const auto& e : std::filesystem::directory_iterator(
           std::string(NFACTOR_SOURCE_DIR) + "/tests/fixtures/fuzz")) {
    if (e.path().extension() != ".nf") continue;
    const std::string file = e.path().filename().string();
    SCOPED_TRACE(file);
    expect_set_slice_is_union(pipeline::run_source(fuzz_fixture(file), file));
    ++seen;
  }
  EXPECT_EQ(seen, 4);
}

struct SliceSizes {
  std::size_t pkt, state, uni, pkt_vars, cfg_vars, ois_vars, log_vars;
};

SliceSizes sizes_of(const pipeline::PipelineResult& r) {
  return {r.pkt_slice.size(),     r.state_slice.size(),
          r.union_slice.size(),   r.cats.pkt_vars.size(),
          r.cats.cfg_vars.size(), r.cats.ois_vars.size(),
          r.cats.log_vars.size()};
}

void expect_sizes(const SliceSizes& got, const SliceSizes& want) {
  EXPECT_EQ(got.pkt, want.pkt);
  EXPECT_EQ(got.state, want.state);
  EXPECT_EQ(got.uni, want.uni);
  EXPECT_EQ(got.pkt_vars, want.pkt_vars);
  EXPECT_EQ(got.cfg_vars, want.cfg_vars);
  EXPECT_EQ(got.ois_vars, want.ois_vars);
  EXPECT_EQ(got.log_vars, want.log_vars);
}

// The counters c<i> only feed themselves, so they are logVars and stay
// out of every slice; the recv, the dport rules and the send make up the
// packet slice, and with no oisVar the state slice is empty.
TEST(SliceScaling, GeneratedNf100) {
  expect_sizes(
      sizes_of(pipeline::run_source(testutil::generated_nf(100), "gen100")),
      {12, 0, 12, 1, 1, 0, 100});
}

TEST(SliceScaling, GeneratedNf400) {
  expect_sizes(
      sizes_of(pipeline::run_source(testutil::generated_nf(400), "gen400")),
      {42, 0, 42, 1, 1, 0, 400});
}

// repro_transitive_ois.nf: m1 reaches a send only across packets, through
// st1. The closure over state updates must still make it an oisVar.
TEST(SliceScaling, LoopCarriedMapIsOisVar) {
  const auto r = pipeline::run_source(
      fuzz_fixture("repro_transitive_ois.nf"), "repro_transitive_ois");
  EXPECT_TRUE(r.cats.is_ois("m1"));
  EXPECT_TRUE(r.cats.is_ois("st1"));
  bool m1_store_in_state_slice = false;
  for (const int id : r.state_slice) {
    const auto& n = r.module->body.node(id);
    if (n.kind == ir::InstrKind::kIndexStore && n.var == "m1") {
      m1_store_in_state_slice = true;
    }
  }
  EXPECT_TRUE(m1_store_in_state_slice);
}

// A global named with a leading underscore pair still seeds the closure:
// renamed st1, the repro keeps m1 an oisVar. The prefix `__t` belongs to
// lowering temporaries, which StateAlyzer never treats as state, so the
// lexer rejects it rather than letting such a global lose m1's category.
TEST(SliceScaling, UnderscoreNamedGlobalKeepsLoopCarriedMapOis) {
  const std::string src = fuzz_fixture("repro_transitive_ois.nf");
  auto renamed = [&](const std::string& name) {
    std::string out = src;
    for (std::size_t at; (at = out.find("st1")) != std::string::npos;) {
      out.replace(at, 3, name);
    }
    return out;
  };
  const auto r = pipeline::run_source(renamed("__state"), "underscore");
  EXPECT_TRUE(r.cats.is_ois("m1"));
  EXPECT_TRUE(r.cats.is_ois("__state"));
  EXPECT_EQ(r.cats.ois_vars, (std::set<std::string>{"__state", "m1"}));
  EXPECT_EQ(r.cats.cfg_vars, (std::set<std::string>{"st2"}));
  EXPECT_TRUE(r.cats.log_vars.empty());
  EXPECT_THROW(pipeline::run_source(renamed("__tstate"), "reserved"),
               lang::LexError);
}

// ---------------------------------------------------------------------------
// The def/use table names exactly the locations ir::Instr::uses(),
// defs() and is_strong_def() name; dynamic slicing and lint use those.
// ---------------------------------------------------------------------------

std::string loc_name(const DefUse& du, int loc) {
  const DefUse::Loc& l = du.loc(loc);
  std::string name(du.var_name(l.var));
  if (l.field) {
    name += '.';
    name += l.field_name;
  }
  return name;
}

void expect_table_matches_instrs(const ir::Cfg& cfg) {
  const DefUse du(cfg);
  std::size_t listed = 0;
  for (int v = 0; v < du.num_vars(); ++v) {
    int prev = -1;
    for (const int d : du.defs_of_var(v)) {
      EXPECT_EQ(du.var_of(du.def(d).loc), v);
      EXPECT_GT(d, prev);
      prev = d;
      ++listed;
    }
  }
  EXPECT_EQ(listed, du.num_defs());
  for (const auto& n : cfg.nodes) {
    std::set<ir::Location> uses;
    for (const int u : du.uses(n->id)) uses.insert(loc_name(du, u));
    std::set<ir::Location> defs;
    for (int d = du.first_def(n->id); d < du.last_def(n->id); ++d) {
      const std::string name = loc_name(du, du.def(d).loc);
      EXPECT_EQ(du.def(d).node, n->id);
      EXPECT_EQ(du.def(d).strong, n->is_strong_def(name)) << name;
      defs.insert(name);
    }
    EXPECT_EQ(uses, n->uses()) << n->to_string();
    EXPECT_EQ(du.uses(n->id).size(), uses.size()) << n->to_string();
    EXPECT_EQ(defs, n->defs()) << n->to_string();
    EXPECT_EQ(static_cast<std::size_t>(du.last_def(n->id) - du.first_def(n->id)),
              defs.size())
        << n->to_string();
  }
}

/// Init and body CFGs, with and without simplify.
void expect_tables_match_instrs(std::string_view source,
                                const std::string& unit) {
  SCOPED_TRACE(unit);
  for (const bool simplify : {false, true}) {
    pipeline::PipelineOptions opts;
    opts.simplify.enabled = simplify;
    const auto r = pipeline::run_source(source, unit, opts);
    expect_table_matches_instrs(r.module->init);
    expect_table_matches_instrs(r.module->body);
  }
}

TEST(DefUseTable, MatchesInstrUsesAndDefsOnCorpusAndFixtures) {
  for (const char* nf : {"lb", "balance", "snort_lite", "nat", "firewall",
                         "monitor", "l2_switch", "dpi", "heavy_hitter",
                         "synflood"}) {
    expect_tables_match_instrs(nfs::find(nf).source, nf);
  }
  for (const auto& e : std::filesystem::directory_iterator(
           std::string(NFACTOR_SOURCE_DIR) + "/tests/fixtures/fuzz")) {
    if (e.path().extension() != ".nf") continue;
    const std::string file = e.path().filename().string();
    expect_tables_match_instrs(fuzz_fixture(file), file);
  }
}

TEST(DefUseTable, MatchesInstrUsesAndDefsOnGeneratedPrograms) {
  fuzz::ProgramGen gen(26);
  for (int i = 0; i < 200; ++i) {
    const auto prog = gen.generate();
    expect_tables_match_instrs(prog.source, "gen" + std::to_string(i));
  }
}

// ---------------------------------------------------------------------------
// Dynamic slicing
// ---------------------------------------------------------------------------

TEST(DynamicSlice, SubsetOfExecutedNodesAndStaticSlice) {
  const auto r = pipeline::run_source(nfs::find("lb").source, "lb");
  runtime::Interpreter interp(*r.module);
  interp.enable_trace(true);
  const auto out = interp.process(
      testutil::tcp_packet("10.0.0.1", 1234, "3.3.3.3", 80));
  ASSERT_FALSE(out.sent.empty());

  const Trace& trace = interp.trace();
  int criterion = -1;
  for (std::size_t i = 0; i < trace.size(); ++i) {
    if (r.module->body.node(trace[i].node).kind == ir::InstrKind::kSend) {
      criterion = static_cast<int>(i);
    }
  }
  ASSERT_GE(criterion, 0);

  const auto dyn = dynamic_slice_nodes(trace, *r.pdg, criterion);
  std::set<int> executed;
  for (const auto& ev : trace) executed.insert(ev.node);
  const auto stat = r.pdg->backward_slice(trace[static_cast<std::size_t>(criterion)].node);

  for (const int n : dyn) {
    EXPECT_TRUE(executed.count(n));
    EXPECT_TRUE(stat.count(n)) << "dynamic slice exceeded static slice at " << n;
  }
}

TEST(DynamicSlice, ExcludesLogStatements) {
  const auto r = pipeline::run_source(nfs::find("lb").source, "lb");
  runtime::Interpreter interp(*r.module);
  interp.enable_trace(true);
  interp.process(testutil::tcp_packet("10.0.0.1", 1234, "3.3.3.3", 80));
  const Trace& trace = interp.trace();
  int criterion = -1;
  for (std::size_t i = 0; i < trace.size(); ++i) {
    if (r.module->body.node(trace[i].node).kind == ir::InstrKind::kSend) {
      criterion = static_cast<int>(i);
    }
  }
  const auto dyn = dynamic_slice_nodes(trace, *r.pdg, criterion);
  for (const int n : dyn) {
    const auto& node = r.module->body.node(n);
    if (node.kind == ir::InstrKind::kAssign) {
      EXPECT_NE(node.var, "pass_stat");
      EXPECT_NE(node.var, "drop_stat");
    }
  }
}

TEST(DynamicSlice, FirstPacketSliceTakesNewConnectionArm) {
  const auto r = pipeline::run_source(nfs::find("lb").source, "lb");
  runtime::Interpreter interp(*r.module);
  interp.enable_trace(true);
  interp.process(testutil::tcp_packet("10.0.0.1", 1234, "3.3.3.3", 80));
  const Trace& trace = interp.trace();
  int criterion = static_cast<int>(trace.size()) - 1;
  const auto dyn = dynamic_slice_nodes(trace, *r.pdg, criterion);
  // The round-robin selection (reads rr_idx) must be in the slice of a
  // first packet; the map-hit lookup must not be.
  bool saw_rr = false, saw_map_hit = false;
  for (const int n : dyn) {
    const auto& node = r.module->body.node(n);
    const std::string text = node.to_string();
    if (text.find("servers[rr_idx]") != std::string::npos) saw_rr = true;
    if (text.find("= f2b_nat[") != std::string::npos) saw_map_hit = true;
  }
  EXPECT_TRUE(saw_rr);
  EXPECT_FALSE(saw_map_hit);
}

TEST(DynamicSlice, SecondPacketUsesMapHitArm) {
  const auto r = pipeline::run_source(nfs::find("lb").source, "lb");
  runtime::Interpreter interp(*r.module);
  const auto p = testutil::tcp_packet("10.0.0.1", 1234, "3.3.3.3", 80);
  interp.process(p);  // installs the mapping, untraced
  interp.enable_trace(true);
  interp.process(p);  // traced second packet
  const Trace& trace = interp.trace();
  int criterion = static_cast<int>(trace.size()) - 1;
  const auto dyn = dynamic_slice_nodes(trace, *r.pdg, criterion);
  bool saw_map_hit = false;
  for (const int n : dyn) {
    if (r.module->body.node(n).to_string().find("= f2b_nat[") !=
        std::string::npos) {
      saw_map_hit = true;
    }
  }
  EXPECT_TRUE(saw_map_hit);
}

}  // namespace
}  // namespace nfactor::analysis
