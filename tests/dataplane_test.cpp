// The dataplane compiler's differential test wall (docs/dataplane.md):
// FDD structural invariants on hand-built rule sets and on every
// bundled NF's compiled table, compiled-vs-interpreter equivalence over
// edge-case and random batches for the whole corpus (with and without
// config specialization), golden compiled-table dumps for
// nat/firewall/snort_lite and golden threaded code for every corpus NF
// (NFACTOR_UPDATE_GOLDEN=1 regenerates both), and byte-identity of the
// dumps across SE worker widths.
#include "dataplane/engine.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "dataplane/fdd.h"
#include "dataplane/threaded.h"
#include "model/interp.h"
#include "netsim/packet_gen.h"
#include "nfactor/pipeline.h"
#include "nfs/corpus.h"
#include "tests/test_util.h"

#ifndef NFACTOR_SOURCE_DIR
#error "tests/CMakeLists.txt must define NFACTOR_SOURCE_DIR"
#endif

namespace nfactor::dataplane {
namespace {

using runtime::Value;
using symex::SymRef;
using symex::VarClass;
using testutil::tcp_packet;

SymRef pkt_field(const char* f) {
  return symex::make_var(std::string("pkt.") + f, VarClass::kPkt);
}

SymRef eq(SymRef a, SymRef b) {
  return symex::make_bin(lang::BinOp::kEq, std::move(a), std::move(b));
}

// ---------------------------------------------------------------------------
// FDD builder invariants on hand-built rule sets
// ---------------------------------------------------------------------------

TEST(FddBuild, FirstMatchWinsOnOverlap) {
  // Rule 0: dport == 80 -> entry 0. Rule 1: (no constraint) -> entry 1.
  // Both match a dport-80 packet; the FDD must commit to entry 0 on the
  // true edge and entry 1 everywhere else.
  const SymRef a = eq(pkt_field("dport"), symex::make_int(80));
  const std::vector<FddRule> rules = {{0, {a}}, {1, {}}};
  const Fdd f = build_fdd(rules);
  ASSERT_EQ(f.nodes.size(), 1u);
  EXPECT_EQ(f.root, 0);
  EXPECT_EQ(f.nodes[0].on_true, leaf_ref(0));
  EXPECT_EQ(f.nodes[0].on_false, leaf_ref(1));
  // Rule 1 never mentions the atom, so it also survives a throw.
  EXPECT_EQ(f.nodes[0].on_except, leaf_ref(1));
  EXPECT_TRUE(check_ordered(f));
  EXPECT_TRUE(check_reduced(f));
}

TEST(FddBuild, ComplementsUnifyIntoOneTest) {
  // negate() folds !(a == b) into a != b; both polarities of the same
  // comparison must share a single test node.
  const SymRef c = eq(pkt_field("ip_proto"), symex::make_int(6));
  const std::vector<FddRule> rules = {{0, {c}}, {1, {symex::negate(c)}}};
  const Fdd f = build_fdd(rules);
  EXPECT_EQ(f.stats.atoms, 1u);
  EXPECT_EQ(f.stats.complement_pairs, 1u);
  ASSERT_EQ(f.nodes.size(), 1u);
  EXPECT_EQ(f.nodes[0].on_true, leaf_ref(0));
  EXPECT_EQ(f.nodes[0].on_false, leaf_ref(1));
  // A throwing atom fails *both* rules (each mentions it), so the
  // except edge is the default drop.
  EXPECT_EQ(f.nodes[0].on_except, leaf_ref(-1));
}

TEST(FddBuild, ContradictoryRuleIsPruned) {
  const SymRef c = eq(pkt_field("sport"), symex::make_int(53));
  const std::vector<FddRule> rules = {{0, {c, symex::negate(c)}}, {1, {}}};
  const Fdd f = build_fdd(rules);
  EXPECT_EQ(f.stats.infeasible, 1u);
  EXPECT_EQ(f.stats.rules, 1u);
  // Only the unconstrained rule remains: the whole FDD is its leaf.
  EXPECT_EQ(f.root, leaf_ref(1));
  EXPECT_TRUE(f.nodes.empty());
}

TEST(FddBuild, SharedContinuationIsBuiltOnce) {
  // Rule 0 tests atom a; rule 1 tests atom z. After a is false or
  // throws, the continuation is the same "test z" subtree — the memo
  // must reuse it, making the DAG a genuine DAG.
  const SymRef a = eq(pkt_field("dport"), symex::make_int(80));
  const SymRef z = eq(pkt_field("sport"), symex::make_int(1000));
  const std::vector<FddRule> rules = {{0, {a}}, {1, {z}}};
  const Fdd f = build_fdd(rules);
  ASSERT_EQ(f.nodes.size(), 2u);
  EXPECT_EQ(f.nodes[1].on_false, f.nodes[1].on_except);
  EXPECT_GE(f.stats.memo_hits, 1u);
  EXPECT_GE(shared_edge_count(f), 1u);
  EXPECT_TRUE(check_ordered(f));
  EXPECT_TRUE(check_reduced(f));
}

TEST(FddBuild, NodeBudgetThrows) {
  // 2^k distinct outcomes on k independent atoms with a tiny budget.
  std::vector<FddRule> rules;
  for (int i = 0; i < 12; ++i) {
    std::vector<SymRef> atoms;
    for (int b = 0; b < 12; ++b) {
      const SymRef c = eq(pkt_field("ip_id"), symex::make_int(b));
      atoms.push_back(((i >> b) & 1) != 0 ? c : symex::negate(c));
    }
    rules.push_back(FddRule{i, std::move(atoms)});
  }
  FddOptions opts;
  opts.max_nodes = 4;
  EXPECT_THROW(build_fdd(rules, opts), std::runtime_error);
}

// ---------------------------------------------------------------------------
// Compiled-vs-interpreter equivalence
// ---------------------------------------------------------------------------

/// Rebuild an Fdd view of a flattened table so the structural checkers
/// apply to the exact artifact the engine executes.
Fdd to_fdd(const CompiledTable& t) {
  Fdd f;
  for (const auto& p : t.preds) f.atoms.push_back(p.expr);
  const auto conv = [&](std::int32_t e) -> FddRef {
    return e >= 0 ? e : leaf_ref(t.leaves[static_cast<std::size_t>(~e)].entry);
  };
  for (const auto& n : t.nodes) {
    f.nodes.push_back(
        FddNode{n.pred, conv(n.on_true), conv(n.on_false), conv(n.on_except)});
  }
  f.root = conv(t.root);
  return f;
}

std::vector<netsim::Packet> test_batch() {
  auto packets = netsim::PacketGen::edge_cases();
  netsim::PacketGen gen(11);
  const auto random = gen.batch(250);
  packets.insert(packets.end(), random.begin(), random.end());
  // Edge cases again, now against warmed-up state.
  const auto edges = netsim::PacketGen::edge_cases();
  packets.insert(packets.end(), edges.begin(), edges.end());
  return packets;
}

/// Final oisVar state of the engine must equal the interpreter's.
void expect_same_state(const model::Model& m,
                       const model::ModelInterpreter& mi,
                       const DataplaneEngine& eng, const std::string& label) {
  for (const std::string& v : m.ois_vars) {
    const Value* a = mi.state(v);
    const Value* b = eng.state(v);
    ASSERT_EQ(a == nullptr, b == nullptr) << label << ": state " << v;
    if (a != nullptr && b != nullptr) {
      EXPECT_TRUE(runtime::value_eq(*a, *b))
          << label << ": state " << v << ": interpreter "
          << runtime::to_string(*a) << " vs compiled "
          << runtime::to_string(*b);
    }
  }
}

/// Run the interpreter and the engine's per-packet process() in lockstep
/// and require identical matched entries, identical emitted
/// packets/ports, and identical final oisVar state.
void expect_equivalent(const model::Model& m,
                       const std::map<std::string, Value>& store,
                       const std::vector<netsim::Packet>& packets,
                       bool specialize, const std::string& label) {
  CompileOptions copts;
  if (specialize) copts.bindings = &store;
  const CompiledTable table = compile(m, copts);
  model::ModelInterpreter mi(m, store);
  DataplaneEngine eng(table, store);
  for (std::size_t i = 0; i < packets.size(); ++i) {
    const model::ModelOutput a = mi.process(packets[i]);
    const model::ModelOutput b = eng.process(packets[i]);
    ASSERT_EQ(a.matched_entry, b.matched_entry)
        << label << ": packet " << i << ": " << netsim::to_string(packets[i]);
    ASSERT_EQ(a.sent.size(), b.sent.size()) << label << ": packet " << i;
    for (std::size_t j = 0; j < a.sent.size(); ++j) {
      EXPECT_TRUE(a.sent[j].first == b.sent[j].first)
          << label << ": packet " << i << " send " << j;
      EXPECT_EQ(a.sent[j].second, b.sent[j].second)
          << label << ": packet " << i << " send " << j;
    }
  }
  expect_same_state(m, mi, eng, label);
}

class DataplaneCorpus : public ::testing::TestWithParam<nfs::CorpusEntry> {};

TEST_P(DataplaneCorpus, CompiledMatchesInterpreter) {
  const auto& e = GetParam();
  const auto r =
      pipeline::run_source(std::string(e.source), std::string(e.name));
  ASSERT_FALSE(r.degraded()) << e.name;
  const auto store = model::initial_store(*r.module);
  const auto packets = test_batch();
  expect_equivalent(r.model, store, packets, /*specialize=*/true,
                    std::string(e.name) + " (specialized)");
  expect_equivalent(r.model, store, packets, /*specialize=*/false,
                    std::string(e.name) + " (generic)");
}

TEST_P(DataplaneCorpus, StructuralInvariantsHold) {
  const auto& e = GetParam();
  const auto r =
      pipeline::run_source(std::string(e.source), std::string(e.name));
  const auto store = model::initial_store(*r.module);
  CompileOptions copts;
  copts.bindings = &store;
  const CompiledTable table = compile(r.model, copts);
  const Fdd f = to_fdd(table);
  // Variable-ordered: no atom re-tested on any path. Reduced: no
  // all-edges-equal node, no structural duplicates.
  EXPECT_TRUE(check_ordered(f)) << e.name;
  EXPECT_TRUE(check_reduced(f)) << e.name;
  ASSERT_FALSE(table.leaves.empty()) << e.name;
  EXPECT_EQ(table.leaves[0].entry, -1) << e.name;  // default drop slot
}

/// Batch equivalence against the reference semantics: execute_batch
/// must produce the verdicts, sends, and post-state of
/// ModelInterpreter::process run packet by packet, for every corpus NF.
/// Batches alternate between 256 packets, which takes the vectored
/// executor on generic-free NFs, and 63 packets, which stays below
/// kVectoredMinBatch and runs the scalar dispatch loop. (The name
/// predates the removal of the table-walk executor; it is kept so the
/// test keeps its history.)
TEST_P(DataplaneCorpus, ThreadedBatchMatchesTableWalk) {
  const auto& e = GetParam();
  const auto r =
      pipeline::run_source(std::string(e.source), std::string(e.name));
  const auto store = model::initial_store(*r.module);
  CompileOptions copts;
  copts.bindings = &store;
  const CompiledTable table = compile(r.model, copts);
  auto packets = test_batch();
  netsim::PacketGen gen(23);
  const auto more = gen.batch(400);
  packets.insert(packets.end(), more.begin(), more.end());

  model::ModelInterpreter mi(r.model, store);
  DataplaneEngine eng(table, store);
  BatchOutput out;
  // Two rounds of both sizes: later batches hit warmed-up per-flow state.
  std::size_t at = 0;
  for (const std::size_t size : {256, 63, 256, 63}) {
    ASSERT_LE(at + size, packets.size());
    const std::span<const netsim::Packet> batch(packets.data() + at, size);
    const std::string label = std::string(e.name) + " batch@" +
                              std::to_string(at) + "+" + std::to_string(size);
    out.clear();
    eng.execute_batch(batch, out);
    ASSERT_EQ(out.matched.size(), size) << label;
    const auto sends = out.sends();
    std::size_t next = 0;
    for (std::size_t i = 0; i < size; ++i) {
      const model::ModelOutput o = mi.process(batch[i]);
      ASSERT_EQ(o.matched_entry, out.matched[i])
          << label << " packet " << i << ": " << netsim::to_string(batch[i]);
      for (const auto& [pkt, port] : o.sent) {
        ASSERT_LT(next, sends.size()) << label << " packet " << i;
        EXPECT_EQ(sends[next].src, static_cast<std::int32_t>(i)) << label;
        EXPECT_EQ(sends[next].port, port) << label << " packet " << i;
        EXPECT_TRUE(sends[next].packet() == pkt) << label << " packet " << i;
        ++next;
      }
    }
    EXPECT_EQ(next, sends.size()) << label;
    at += size;
  }
  expect_same_state(r.model, mi, eng, std::string(e.name));
}

/// Every FlatNode must lower to a test chain of at least one op (the
/// splitter may emit several per node), every leaf to exactly one
/// terminal, with the entry pc resolving the table root.
TEST_P(DataplaneCorpus, ThreadedLoweringShape) {
  const auto& e = GetParam();
  const auto r =
      pipeline::run_source(std::string(e.source), std::string(e.name));
  const auto store = model::initial_store(*r.module);
  CompileOptions copts;
  copts.bindings = &store;
  const CompiledTable table = compile(r.model, copts);
  const ThreadedCode tc = lower_threaded(table);
  EXPECT_EQ(tc.code.size(), tc.node_ops + table.leaves.size()) << e.name;
  EXPECT_GE(tc.node_ops, table.nodes.size()) << e.name;
  EXPECT_EQ(tc.node_pc.size(), table.nodes.size()) << e.name;
  EXPECT_EQ(tc.fused_ops + tc.prog_ops + tc.generic_ops, tc.node_ops)
      << e.name;
  // Branch targets are pre-resolved: every node edge lands inside the
  // program, every node entry lands inside the test block, every
  // terminal carries its leaf index.
  const auto in_range = [&](std::int32_t pc) {
    return pc >= 0 && static_cast<std::size_t>(pc) < tc.code.size();
  };
  EXPECT_TRUE(in_range(tc.entry_pc)) << e.name;
  for (const std::int32_t entry : tc.node_pc) {
    EXPECT_TRUE(entry >= 0 && static_cast<std::size_t>(entry) < tc.node_ops)
        << e.name << " entry pc" << entry;
  }
  for (std::size_t i = 0; i < tc.node_ops; ++i) {
    EXPECT_TRUE(in_range(tc.code[i].t)) << e.name << " pc" << i;
    EXPECT_TRUE(in_range(tc.code[i].f)) << e.name << " pc" << i;
    EXPECT_TRUE(in_range(tc.code[i].x)) << e.name << " pc" << i;
  }
  for (std::size_t l = 0; l < table.leaves.size(); ++l) {
    const ThreadedOp& term = tc.code[tc.node_ops + l];
    EXPECT_EQ(term.aux, static_cast<std::int32_t>(l)) << e.name;
    EXPECT_EQ(term.entry, table.leaves[l].entry) << e.name;
  }
}

/// The vectored executor's sweep order: topo must start at the entry,
/// contain no duplicates, and order every branch edge forward — an op
/// can only push packets onto queues that have not been drained yet.
TEST_P(DataplaneCorpus, ThreadedTopoOrdersEveryEdgeForward) {
  const auto& e = GetParam();
  const auto r =
      pipeline::run_source(std::string(e.source), std::string(e.name));
  const auto store = model::initial_store(*r.module);
  CompileOptions copts;
  copts.bindings = &store;
  const CompiledTable table = compile(r.model, copts);
  const ThreadedCode tc = lower_threaded(table);
  const auto test_ops = static_cast<std::int32_t>(tc.node_ops);
  if (tc.entry_pc >= test_ops) {
    EXPECT_TRUE(tc.topo.empty()) << e.name;
    return;
  }
  ASSERT_FALSE(tc.topo.empty()) << e.name;
  EXPECT_EQ(tc.topo.front(), tc.entry_pc) << e.name;
  std::vector<std::int32_t> pos(tc.node_ops, -1);
  for (std::size_t i = 0; i < tc.topo.size(); ++i) {
    const std::int32_t pc = tc.topo[i];
    ASSERT_TRUE(pc >= 0 && pc < test_ops) << e.name << " pc" << pc;
    EXPECT_EQ(pos[static_cast<std::size_t>(pc)], -1)
        << e.name << " duplicate pc" << pc;
    pos[static_cast<std::size_t>(pc)] = static_cast<std::int32_t>(i);
  }
  for (const std::int32_t pc : tc.topo) {
    const ThreadedOp& o = tc.code[static_cast<std::size_t>(pc)];
    for (const std::int32_t nx : {o.t, o.f, o.x}) {
      if (nx >= test_ops) continue;  // terminal edge
      EXPECT_GT(pos[static_cast<std::size_t>(nx)],
                pos[static_cast<std::size_t>(pc)])
          << e.name << " edge pc" << pc << " -> pc" << nx;
    }
  }
}

std::string corpus_name(
    const ::testing::TestParamInfo<nfs::CorpusEntry>& info) {
  return std::string(info.param.name);
}

INSTANTIATE_TEST_SUITE_P(AllNfs, DataplaneCorpus,
                         ::testing::ValuesIn(nfs::corpus()), corpus_name);

// ---------------------------------------------------------------------------
// Batch execution
// ---------------------------------------------------------------------------

TEST(DataplaneBatch, BatchEqualsSequentialProcess) {
  const auto r = pipeline::run_source(nfs::find("firewall").source, "firewall");
  const auto store = model::initial_store(*r.module);
  CompileOptions copts;
  copts.bindings = &store;
  const CompiledTable table = compile(r.model, copts);
  const auto packets = test_batch();

  DataplaneEngine seq(table, store);
  DataplaneEngine bat(table, store);
  BatchOutput out;
  bat.execute_batch(packets, out);

  ASSERT_EQ(out.matched.size(), packets.size());
  const auto sends = out.sends();
  std::size_t send_at = 0;
  for (std::size_t i = 0; i < packets.size(); ++i) {
    const model::ModelOutput o = seq.process(packets[i]);
    EXPECT_EQ(o.matched_entry, out.matched[i]) << "packet " << i;
    for (const auto& [pkt, port] : o.sent) {
      ASSERT_LT(send_at, sends.size());
      EXPECT_EQ(sends[send_at].src, static_cast<std::int32_t>(i));
      EXPECT_TRUE(sends[send_at].packet() == pkt);
      EXPECT_EQ(sends[send_at].port, port);
      ++send_at;
    }
  }
  EXPECT_EQ(send_at, sends.size());
  // Same engine, second batch on a cleared output: state carries over
  // exactly as sequential processing would.
  out.clear();
  bat.execute_batch(packets, out);
  ASSERT_EQ(out.matched.size(), packets.size());
  for (std::size_t i = 0; i < packets.size(); ++i) {
    const model::ModelOutput o = seq.process(packets[i]);
    EXPECT_EQ(o.matched_entry, out.matched[i]) << "second batch, packet " << i;
  }
}

// ---------------------------------------------------------------------------
// Exception semantics and config specialization on hand-built models
// ---------------------------------------------------------------------------

TEST(DataplaneSemantics, ThrowingAtomFailsOnlyEntriesMentioningIt) {
  // Entry 0 matches on a map lookup that throws while the map is empty;
  // entry 1 matches dport 80 without touching the map. The interpreter
  // lets entry 1 win until the mapping exists — the engine must too.
  model::Model m;
  m.nf_name = "hand";
  m.ois_vars = {"sessions"};
  const SymRef key = symex::make_tuple({pkt_field("sport")});
  const SymRef lookup =
      symex::make_map_get(symex::make_map_base("sessions"), key);
  model::ModelEntry e0;
  e0.state_match = {eq(lookup, symex::make_int(1))};
  e0.flow_action.push_back(model::SendAction{{}, symex::make_int(1)});
  model::ModelEntry e1;
  e1.flow_match = {eq(pkt_field("dport"), symex::make_int(80))};
  e1.flow_action.push_back(model::SendAction{{}, symex::make_int(2)});
  e1.state_action["sessions"] = symex::make_map_store(
      symex::make_map_base("sessions"), key, symex::make_int(1));
  m.entries = {e0, e1};

  std::map<std::string, Value> store;
  store["sessions"] = Value(std::make_shared<runtime::MapV>());

  CompileOptions copts;
  copts.bindings = &store;
  const CompiledTable table = compile(m, copts);
  model::ModelInterpreter mi(m, store);
  DataplaneEngine eng(table, store);

  const auto p = tcp_packet("10.0.0.1", 4242, "10.0.0.2", 80);
  // First packet: the lookup throws, entry 1 matches and installs state.
  auto a = mi.process(p);
  auto b = eng.process(p);
  ASSERT_EQ(a.matched_entry, 1);
  ASSERT_EQ(b.matched_entry, 1);
  // Second packet: the mapping exists, entry 0 now matches on both sides.
  a = mi.process(p);
  b = eng.process(p);
  ASSERT_EQ(a.matched_entry, 0);
  ASSERT_EQ(b.matched_entry, 0);
  EXPECT_EQ(a.sent[0].second, b.sent[0].second);
}

TEST(DataplaneSemantics, ConfigSpecializationFoldsAndCompiles) {
  model::Model m;
  m.nf_name = "hand";
  m.cfg_vars = {"WATCH"};
  model::ModelEntry e0;
  e0.config_match = {};
  e0.flow_match = {
      eq(pkt_field("dport"), symex::make_var("WATCH", VarClass::kCfg))};
  e0.flow_action.push_back(model::SendAction{{}, symex::make_int(1)});
  m.entries = {e0};

  std::map<std::string, Value> store;
  store["WATCH"] = Value(runtime::Int{80});

  CompileOptions copts;
  copts.bindings = &store;
  const CompiledTable table = compile(m, copts);
  // The config scalar is substituted and the predicate compiles to a
  // stack program over packet fields only.
  ASSERT_EQ(table.preds.size(), 1u);
  EXPECT_TRUE(table.preds[0].prog.compiled());
  EXPECT_EQ(symex::to_string(table.preds[0].expr), "(pkt.dport == 80)");

  model::ModelInterpreter mi(m, store);
  DataplaneEngine eng(table, store);
  for (const int dport : {80, 81}) {
    const auto p = tcp_packet("10.0.0.1", 1234, "10.0.0.2", dport);
    EXPECT_EQ(mi.process(p).matched_entry, eng.process(p).matched_entry)
        << "dport " << dport;
  }
}

// ---------------------------------------------------------------------------
// Golden compiled-table dumps (nat / firewall / snort_lite)
// ---------------------------------------------------------------------------

bool update_mode() { return std::getenv("NFACTOR_UPDATE_GOLDEN") != nullptr; }

/// tests/golden/dataplane/<nf><suffix>: ".txt" holds the table dump,
/// ".threaded.txt" the threaded code the engine executes.
std::string golden_path(const std::string& nf,
                        const std::string& suffix = ".txt") {
  return std::string(NFACTOR_SOURCE_DIR) + "/tests/golden/dataplane/" + nf +
         suffix;
}

std::string read_file(const std::string& path, bool* ok) {
  std::ifstream in(path);
  *ok = static_cast<bool>(in);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

/// nf-synth --compile parity: simplify on (fold_config), bindings from
/// the module's initial store.
std::string compiled_dump(const std::string& nf, int jobs) {
  pipeline::PipelineOptions opts;
  opts.simplify.enabled = true;
  opts.simplify.fold_config = true;
  opts.jobs = jobs;
  const auto r = pipeline::run_source(nfs::find(nf).source, nf, opts);
  const auto store = model::initial_store(*r.module);
  CompileOptions copts;
  copts.bindings = &store;
  return compile(r.model, copts).to_text();
}

class DataplaneGolden : public ::testing::TestWithParam<const char*> {};

TEST_P(DataplaneGolden, DumpMatchesGolden) {
  const std::string nf = GetParam();
  const std::string dump = compiled_dump(nf, /*jobs=*/1);
  if (update_mode()) {
    std::ofstream out(golden_path(nf));
    ASSERT_TRUE(out) << "cannot write " << golden_path(nf);
    out << dump;
    return;
  }
  bool ok = false;
  const std::string expected = read_file(golden_path(nf), &ok);
  ASSERT_TRUE(ok) << "missing golden " << golden_path(nf)
                  << " (run with NFACTOR_UPDATE_GOLDEN=1 to create)";
  EXPECT_EQ(expected, dump) << "golden mismatch for " << golden_path(nf);
}

TEST_P(DataplaneGolden, DumpIdenticalAcrossJobs) {
  const std::string nf = GetParam();
  EXPECT_EQ(compiled_dump(nf, 1), compiled_dump(nf, 4)) << nf;
}

INSTANTIATE_TEST_SUITE_P(Corpus, DataplaneGolden,
                         ::testing::Values("nat", "firewall", "snort_lite"),
                         [](const ::testing::TestParamInfo<const char*>& i) {
                           return std::string(i.param);
                         });

/// nf-synth --compile parity, second half: the threaded dump must be as
/// jobs-deterministic as the table dump it lowers from.
std::string threaded_dump(const std::string& nf, int jobs) {
  pipeline::PipelineOptions opts;
  opts.simplify.enabled = true;
  opts.simplify.fold_config = true;
  opts.jobs = jobs;
  const auto r = pipeline::run_source(nfs::find(nf).source, nf, opts);
  const auto store = model::initial_store(*r.module);
  CompileOptions copts;
  copts.bindings = &store;
  const CompiledTable table = compile(r.model, copts);
  return lower_threaded(table).to_text(table);
}

TEST_P(DataplaneGolden, ThreadedDumpIdenticalAcrossJobs) {
  const std::string nf = GetParam();
  const std::string d1 = threaded_dump(nf, 1);
  EXPECT_EQ(d1, threaded_dump(nf, 4)) << nf;
  EXPECT_NE(d1.find("# nfactor dataplane threaded v1"), std::string::npos);
}

/// Golden threaded code for every corpus NF: the program the engine
/// actually executes, pinned op for op.
class DataplaneThreadedGolden
    : public ::testing::TestWithParam<nfs::CorpusEntry> {};

TEST_P(DataplaneThreadedGolden, DumpMatchesGolden) {
  const std::string nf(GetParam().name);
  const std::string path = golden_path(nf, ".threaded.txt");
  const std::string dump = threaded_dump(nf, /*jobs=*/1);
  if (update_mode()) {
    std::ofstream out(path);
    ASSERT_TRUE(out) << "cannot write " << path;
    out << dump;
    return;
  }
  bool ok = false;
  const std::string expected = read_file(path, &ok);
  ASSERT_TRUE(ok) << "missing golden " << path
                  << " (run with NFACTOR_UPDATE_GOLDEN=1 to create)";
  EXPECT_EQ(expected, dump) << "golden mismatch for " << path;
}

INSTANTIATE_TEST_SUITE_P(AllNfs, DataplaneThreadedGolden,
                         ::testing::ValuesIn(nfs::corpus()), corpus_name);

// ---------------------------------------------------------------------------
// Payload scan: memchr-hop vs Boyer–Moore–Horspool
// ---------------------------------------------------------------------------

std::vector<std::uint8_t> bytes(const std::string& s) {
  return {s.begin(), s.end()};
}

TEST(PayloadScan, BmhKicksInAtThreshold) {
  EXPECT_FALSE(make_needle("exploit").use_bmh);  // 7 bytes: memchr hop
  EXPECT_TRUE(make_needle("USER root").use_bmh);
  EXPECT_TRUE(make_needle("/etc/shadow").use_bmh);
  EXPECT_EQ(make_needle("12345678").use_bmh, kBmhMinNeedle <= 8);
}

TEST(PayloadScan, ScannersAgreeOnEdgeCases) {
  // The 256- and 300-byte needles overflow a uint8 shift: unclamped, the
  // 256-byte needle's shift for absent bytes wraps to 0 and scan_bmh
  // never advances on the dense haystack below.
  const std::vector<std::string> needles = {
      "",          "a",          "ab",          "exploit",    "/etc/shadow",
      "USER root", "aaaaaaaaaa", "ababababab",  "longneedle", "zzzzzzzz",
      std::string(255, 'a') + "b", std::string(299, 'a') + "b"};
  std::string dense(600, 'z');  // an 'a' every 7 bytes: candidate-dense
  for (std::size_t i = 0; i < dense.size(); i += 7) dense[i] = 'a';
  const std::vector<std::string> hays = {
      "",
      "a",
      "exploit",
      "xexploit",
      "exploitx",
      "GET /etc/shadow HTTP/1.1",
      "USER root\r\nPASS x",
      "aaaaaaaaa",
      "aaaaaaaaaa",
      "abababababab",
      "the quick brown fox jumps over the lazy dog",
      std::string(1024, 'x'),
      std::string(1000, 'x') + "/etc/shadow",
      "/etc/shado",  // one byte short of a match
      std::string(64, 'U') + "USER root",
      dense,
      dense + std::string(299, 'a') + "b",
  };
  for (const std::string& ntext : needles) {
    const Needle n = make_needle(ntext);
    for (const std::string& h : hays) {
      const auto hay = bytes(h);
      const bool expected = h.find(ntext) != std::string::npos;
      EXPECT_EQ(scan_memchr_hop({hay.data(), hay.size()}, ntext), expected)
          << "memchr-hop \"" << ntext << "\" in \"" << h.substr(0, 32) << "\"";
      // scan_bmh must terminate and agree even below the use_bmh
      // threshold — make_needle builds the shift table for every
      // length, and the payload-scan microbench drives short needles
      // through it directly.
      EXPECT_EQ(scan_bmh({hay.data(), hay.size()}, n), expected)
          << "bmh \"" << ntext << "\" in \"" << h.substr(0, 32) << "\"";
      EXPECT_EQ(scan_adaptive({hay.data(), hay.size()}, n), expected)
          << "adaptive \"" << ntext << "\" in \"" << h.substr(0, 32) << "\"";
      EXPECT_EQ(payload_contains(hay, n), expected)
          << "dispatch \"" << ntext << "\" in \"" << h.substr(0, 32) << "\"";
    }
  }
}

TEST(PayloadScan, RandomizedAgreementWithStdSearch) {
  // Pseudo-random haystacks over a small alphabet (so matches actually
  // happen) against needles sampled from the same distribution.
  std::uint64_t s = 42;
  const auto rnd = [&] {
    s = s * 6364136223846793005ULL + 1442695040888963407ULL;
    return static_cast<std::uint32_t>(s >> 33);
  };
  for (int iter = 0; iter < 500; ++iter) {
    std::string hay_s;
    const std::size_t hl = rnd() % 200;
    for (std::size_t i = 0; i < hl; ++i) {
      hay_s.push_back(static_cast<char>('a' + rnd() % 4));
    }
    std::string ntext;
    const std::size_t nl = 1 + rnd() % 14;
    for (std::size_t i = 0; i < nl; ++i) {
      ntext.push_back(static_cast<char>('a' + rnd() % 4));
    }
    const auto hay = bytes(hay_s);
    const bool expected = hay_s.find(ntext) != std::string::npos;
    const Needle n = make_needle(ntext);
    EXPECT_EQ(payload_contains(hay, n), expected)
        << "needle \"" << ntext << "\" hay \"" << hay_s << "\"";
    EXPECT_EQ(scan_bmh({hay.data(), hay.size()}, n), expected)
        << "bmh needle \"" << ntext << "\" hay \"" << hay_s << "\"";
    EXPECT_EQ(scan_memchr_hop({hay.data(), hay.size()}, ntext), expected)
        << "memchr needle \"" << ntext << "\" hay \"" << hay_s << "\"";
    // The 4-letter alphabet makes first-byte candidates dense, so long
    // needles here exercise the adaptive scan's BMH switchover path.
    EXPECT_EQ(scan_adaptive({hay.data(), hay.size()}, n), expected)
        << "adaptive needle \"" << ntext << "\" hay \"" << hay_s << "\"";
  }
}

TEST(PayloadScan, FusedOrScanMatchesTwoScans) {
  // payload_contains_either(h, a, b) == contains(h, a) || contains(h, b)
  // for every pairing of the edge-case needles over randomized
  // haystacks — including shared first bytes, one-needle-longer-than-
  // haystack splits, and empty needles.
  const std::vector<std::string> needles = {
      "",   "a",          "ab",          "exploit", "/etc/shadow",
      "ax", "aaaaaaaaaa", "ababababab",  "bbbb"};
  std::uint64_t s = 7;
  const auto rnd = [&] {
    s = s * 6364136223846793005ULL + 1442695040888963407ULL;
    return static_cast<std::uint32_t>(s >> 33);
  };
  std::vector<std::string> hays = {"", "a", "exploit", "/etc/shadow x"};
  for (int iter = 0; iter < 200; ++iter) {
    std::string h;
    const std::size_t hl = rnd() % 80;
    for (std::size_t i = 0; i < hl; ++i) {
      h.push_back(static_cast<char>('a' + rnd() % 4));
    }
    hays.push_back(std::move(h));
  }
  for (const std::string& na : needles) {
    for (const std::string& nb : needles) {
      const Needle a = make_needle(na);
      const Needle b = make_needle(nb);
      for (const std::string& h : hays) {
        const auto hay = bytes(h);
        const bool expected = payload_contains(hay, a) ||
                              payload_contains(hay, b);
        EXPECT_EQ(payload_contains_either(hay, a, b), expected)
            << "\"" << na << "\" | \"" << nb << "\" in \"" << h << "\"";
      }
    }
  }
}

}  // namespace
}  // namespace nfactor::dataplane
