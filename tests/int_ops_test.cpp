// The DSL's integer semantics (lang/int_ops.h) on edge operands, and the
// agreement of every evaluator with it: the symbolic folder, the model
// evaluator, SCCP, the dataplane stack machine, and — on
// tests/fixtures/int_edges.nf and solver_wrap.nf — the runtime against
// the model (differential test) and the model against the compiled engine.
#include "lang/int_ops.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/const_prop.h"
#include "dataplane/engine.h"
#include "model/interp.h"
#include "nfactor/pipeline.h"
#include "runtime/interp.h"
#include "symex/concrete_eval.h"
#include "verify/equivalence.h"

#ifndef NFACTOR_SOURCE_DIR
#error "tests/CMakeLists.txt must define NFACTOR_SOURCE_DIR"
#endif

namespace nfactor {
namespace {

using lang::BinOp;
using Int = std::int64_t;
namespace int_ops = lang::int_ops;

constexpr Int kMin = INT64_MIN;
constexpr Int kMax = INT64_MAX;

struct Case {
  BinOp op;
  Int a;
  Int b;
  std::optional<Int> want;  ///< nullopt: division or modulo by zero
};

std::string label(const Case& c) {
  return std::to_string(c.a) + " " + lang::to_string(c.op) + " " +
         std::to_string(c.b);
}

const std::vector<Case>& cases() {
  static const std::vector<Case> k = {
      {BinOp::kAdd, kMax, 1, kMin},
      {BinOp::kAdd, kMin, -1, kMax},
      {BinOp::kSub, kMin, 1, kMax},
      {BinOp::kSub, 0, kMin, kMin},
      {BinOp::kSub, -1, kMax, kMin},
      {BinOp::kMul, kMax, 2, -2},
      {BinOp::kMul, kMin, -1, kMin},
      {BinOp::kMul, kMin, 0, 0},
      {BinOp::kDiv, kMin, -1, kMin},
      {BinOp::kDiv, kMax, -1, -kMax},
      {BinOp::kDiv, 7, -2, -3},
      {BinOp::kDiv, -7, 2, -3},
      {BinOp::kDiv, kMin, kMax, -1},
      {BinOp::kDiv, 0, kMin, 0},
      {BinOp::kDiv, 5, 0, std::nullopt},
      {BinOp::kDiv, kMin, 0, std::nullopt},
      {BinOp::kMod, kMin, -1, 0},
      {BinOp::kMod, kMax, -1, 0},
      {BinOp::kMod, 7, -3, -2},
      {BinOp::kMod, -7, 3, 2},
      {BinOp::kMod, -7, -3, -1},
      {BinOp::kMod, 7, 3, 1},
      {BinOp::kMod, -1, kMin, -1},
      {BinOp::kMod, kMax, kMin, -1},
      {BinOp::kMod, kMin, kMax, kMax - 1},
      {BinOp::kMod, 0, kMin, 0},
      {BinOp::kMod, 5, 0, std::nullopt},
      {BinOp::kMod, 0, 0, std::nullopt},
      {BinOp::kBitAnd, kMin, -1, kMin},
      {BinOp::kBitOr, kMin, kMax, -1},
      {BinOp::kBitXor, kMax, -1, kMin},
      {BinOp::kShl, 1, 64, 1},
      {BinOp::kShl, 1, -1, kMin},
      {BinOp::kShl, 1, 63, kMin},
      {BinOp::kShl, -1, 1, -2},
      {BinOp::kShl, kMax, 1, -2},
      {BinOp::kShr, kMin, 63, 1},
      {BinOp::kShr, -1, 64, -1},
      {BinOp::kShr, -1, -1, 1},
      {BinOp::kShr, kMin, 0, kMin},
  };
  return k;
}

TEST(IntOps, EdgeOperandTable) {
  for (const Case& c : cases()) {
    EXPECT_EQ(int_ops::apply(c.op, c.a, c.b), c.want) << label(c);
  }
  EXPECT_EQ(int_ops::neg(kMin), kMin);
  EXPECT_EQ(int_ops::neg(kMax), -kMax);
  EXPECT_EQ(int_ops::neg(0), 0);
  EXPECT_EQ(int_ops::compare(BinOp::kLt, kMin, kMax), true);
  EXPECT_EQ(int_ops::compare(BinOp::kGe, kMin, kMin), true);
  EXPECT_EQ(int_ops::compare(BinOp::kNe, -1, kMax), true);
  EXPECT_EQ(int_ops::compare(BinOp::kAdd, 1, 2), std::nullopt);
  EXPECT_EQ(int_ops::apply(BinOp::kLt, 1, 2), std::nullopt);
  EXPECT_EQ(int_ops::apply(BinOp::kAnd, 1, 2), std::nullopt);
}

TEST(IntOps, SymbolicFolderAgrees) {
  for (const Case& c : cases()) {
    const symex::SymRef e =
        symex::make_bin(c.op, symex::make_int(c.a), symex::make_int(c.b));
    if (c.want) {
      ASSERT_TRUE(symex::is_const_int(e)) << label(c);
      EXPECT_EQ(e->int_val, *c.want) << label(c);
    } else {
      EXPECT_EQ(e->kind, symex::SymKind::kBin) << label(c) << " folded";
    }
  }
  const symex::SymRef n =
      symex::make_un(lang::UnOp::kNeg, symex::make_int(kMin));
  ASSERT_TRUE(symex::is_const_int(n));
  EXPECT_EQ(n->int_val, kMin);
}

TEST(IntOps, ModelEvaluatorAgreesOnUnfoldedOperands) {
  for (const Case& c : cases()) {
    // `v op b` with v unknown to the folder, bound to a only on eval.
    const symex::SymRef e = symex::make_bin(
        c.op, symex::make_var("v", symex::VarClass::kPkt),
        symex::make_int(c.b));
    symex::ConcreteEnv env;
    env.var = [&](const std::string&) { return runtime::Value(c.a); };
    if (c.want) {
      const runtime::Value v = symex::eval_concrete(e, env);
      ASSERT_TRUE(v.is_int()) << label(c);
      EXPECT_EQ(v.as_int(), *c.want) << label(c);
    } else {
      EXPECT_THROW(symex::eval_concrete(e, env), std::runtime_error)
          << label(c);
    }
  }
}

TEST(IntOps, SccpAgrees) {
  const lang::SourceLoc loc{1, 1};
  const auto no_lookup = [](const ir::Location&) {
    return analysis::ConstVal::bottom();
  };
  for (const Case& c : cases()) {
    const lang::Binary e(c.op, std::make_unique<lang::IntLit>(c.a, loc),
                         std::make_unique<lang::IntLit>(c.b, loc), loc);
    const analysis::ConstVal v = analysis::eval_const(e, no_lookup);
    EXPECT_EQ(v, c.want ? analysis::ConstVal::of_int(*c.want)
                        : analysis::ConstVal::bottom())
        << label(c);
  }
  const lang::Unary n(lang::UnOp::kNeg,
                      std::make_unique<lang::IntLit>(kMin, loc), loc);
  EXPECT_EQ(analysis::eval_const(n, no_lookup),
            analysis::ConstVal::of_int(kMin));
}

TEST(IntOps, CompiledPredicateAgrees) {
  // Predicate `(pkt.ip_ttl + a) op b == want`, run on a ttl-0 packet:
  // the left operand is `a` at run time but unknown when compiling.
  netsim::Packet p;
  p.ip_ttl = 0;
  for (const Case& c : cases()) {
    if (!c.want) continue;  // a zero divisor is never compiled
    const symex::SymRef ttl =
        symex::make_var("pkt.ip_ttl", symex::VarClass::kPkt);
    const symex::SymRef lhs = symex::make_bin(
        c.op, symex::make_bin(BinOp::kAdd, ttl, symex::make_int(c.a)),
        symex::make_int(c.b));
    model::Model m;
    m.nf_name = "int_ops";
    model::ModelEntry entry;
    entry.flow_match = {
        symex::make_bin(BinOp::kEq, lhs, symex::make_int(*c.want))};
    entry.flow_action.push_back(
        model::SendAction{{}, symex::make_int(1)});
    m.entries = {entry};

    const dataplane::CompiledTable table = dataplane::compile(m);
    ASSERT_EQ(table.preds.size(), 1u) << label(c);
    EXPECT_TRUE(table.preds[0].prog.compiled()) << label(c);
    dataplane::DataplaneEngine eng(table, {});
    model::ModelInterpreter mi(m, {});
    EXPECT_EQ(eng.process(p).matched_entry, 0) << label(c);
    EXPECT_EQ(mi.process(p).matched_entry, 0) << label(c);
  }
}

std::string read_fixture(const std::string& name) {
  std::ifstream in(std::string(NFACTOR_SOURCE_DIR) + "/tests/fixtures/" +
                   name);
  EXPECT_TRUE(in) << name;
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

std::vector<netsim::Packet> ttl_packets() {
  std::vector<netsim::Packet> out;
  for (const int ttl : {0, 1, 255}) {
    netsim::Packet p;
    p.ip_ttl = static_cast<std::uint8_t>(ttl);
    out.push_back(p);
  }
  return out;
}

/// Synthesizes `fixture` (with or without simplification and config
/// folding) and checks that the runtime, the model (differential test),
/// ModelInterpreter and the compiled engine all send packets with
/// ip_ttl 0, 1 and 255 on `ports`.
void expect_ttl_ports_agree(const std::string& fixture,
                            const std::vector<int>& ports, bool simplify) {
  pipeline::PipelineOptions opts;
  opts.simplify.enabled = simplify;
  opts.simplify.fold_config = simplify;
  const auto r = pipeline::run_source(read_fixture(fixture), fixture, opts);
  ASSERT_FALSE(r.degraded());
  const auto packets = ttl_packets();

  runtime::Interpreter rt(*r.module);
  for (std::size_t i = 0; i < packets.size(); ++i) {
    const runtime::Output out = rt.process(packets[i]);
    ASSERT_EQ(out.sent.size(), 1u) << "packet " << i;
    EXPECT_EQ(out.sent[0].second, ports[i]) << "packet " << i;
  }

  const verify::DiffResult diff =
      verify::differential_test(*r.module, r.cats, r.model, packets);
  EXPECT_TRUE(diff.ok()) << diff.mismatches << " mismatches; first: "
                         << (diff.details.empty() ? "" : diff.details[0]);
  EXPECT_EQ(diff.original_sent, 3);

  const auto store = model::initial_store(*r.module);
  for (const bool specialize : {true, false}) {
    dataplane::CompileOptions copts;
    if (specialize) copts.bindings = &store;
    const dataplane::CompiledTable table = dataplane::compile(r.model, copts);
    model::ModelInterpreter mi(r.model, store);
    dataplane::DataplaneEngine eng(table, store);
    for (std::size_t i = 0; i < packets.size(); ++i) {
      const model::ModelOutput a = mi.process(packets[i]);
      const model::ModelOutput b = eng.process(packets[i]);
      EXPECT_EQ(a.matched_entry, b.matched_entry) << "packet " << i;
      ASSERT_EQ(a.sent.size(), 1u) << "packet " << i;
      ASSERT_EQ(b.sent.size(), 1u) << "packet " << i;
      EXPECT_EQ(a.sent[0].second, ports[i]) << "packet " << i;
      EXPECT_EQ(b.sent[0].second, ports[i]) << "packet " << i;
    }
  }
}

class IntEdgesFixture : public ::testing::TestWithParam<bool> {};

// The fixture's own comment: ttl 0, 1, 255 send on ports 2, 4, 3.
TEST_P(IntEdgesFixture, RuntimeModelAndEngineAgree) {
  expect_ttl_ports_agree("int_edges.nf", {2, 4, 3}, GetParam());
}

// The solver keeps `pkt.ip_ttl + MAX` opaque because it wraps, so the
// model keeps every send: ttl 0, 1, 255 on ports 2, 1, 3.
TEST_P(IntEdgesFixture, SolverWrapFixtureKeepsEverySend) {
  expect_ttl_ports_agree("solver_wrap.nf", {2, 1, 3}, GetParam());
}

INSTANTIATE_TEST_SUITE_P(Simplify, IntEdgesFixture, ::testing::Bool());

}  // namespace
}  // namespace nfactor
