// Unit tests for the SCCP lattice (analysis/const_prop): meet laws,
// abstract expression evaluation (folding must match the concrete
// runtime), branch feasibility, and field- vs whole-variable locations.
#include "analysis/const_prop.h"

#include <gtest/gtest.h>

#include "ir/ir.h"
#include "ir/lower.h"
#include "netsim/packet.h"
#include "tests/test_util.h"

namespace nfactor {
namespace {

using analysis::ConstEnv;
using analysis::ConstProp;
using analysis::ConstVal;
using testutil::lowered;
using testutil::nf_body;

const ir::Instr* find_kind(const ir::Cfg& cfg, ir::InstrKind kind,
                           const std::string& var = "") {
  for (const int id : cfg.real_nodes()) {
    const auto& n = cfg.node(id);
    if (n.kind == kind && (var.empty() || n.var == var)) return &n;
  }
  return nullptr;
}

/// Abstractly evaluate the source expression `expr` under `env`
/// (missing locations read as Top, as in the analysis itself).
ConstVal eval_src(const std::string& expr, const ConstEnv& env = {},
                  const std::string& globals = "") {
  const auto m =
      lowered(nf_body("y = " + expr + ";\n    send(pkt, 0);", globals));
  const auto* n = find_kind(m.body, ir::InstrKind::kAssign, "y");
  EXPECT_NE(n, nullptr) << expr;
  return analysis::eval_const(*n->value, [&](const ir::Location& loc) {
    const auto it = env.find(loc);
    return it == env.end() ? ConstVal::top() : it->second;
  });
}

TEST(ConstValTest, MeetLatticeLaws) {
  const auto top = ConstVal::top();
  const auto bot = ConstVal::bottom();
  const auto c1 = ConstVal::of_int(1);
  const auto c2 = ConstVal::of_int(2);
  const auto bt = ConstVal::of_bool(true);
  const auto s = ConstVal::of_str("a");

  // Top is the identity, Bottom absorbs.
  EXPECT_EQ(meet(top, c1), c1);
  EXPECT_EQ(meet(c1, top), c1);
  EXPECT_EQ(meet(bot, c1), bot);
  EXPECT_EQ(meet(c1, bot), bot);
  EXPECT_EQ(meet(top, top), top);

  // Equal constants survive; conflicting values or kinds collapse.
  EXPECT_EQ(meet(c1, c1), c1);
  EXPECT_EQ(meet(c1, c2), bot);
  EXPECT_EQ(meet(c1, bt), bot);
  EXPECT_EQ(meet(s, c1), bot);
  EXPECT_EQ(meet(s, ConstVal::of_str("a")), s);

  // Commutativity on a few representative pairs.
  EXPECT_EQ(meet(c1, c2), meet(c2, c1));
  EXPECT_EQ(meet(top, bot), meet(bot, top));
}

TEST(ConstValTest, ToStringSmoke) {
  EXPECT_EQ(ConstVal::top().is_top(), true);
  EXPECT_FALSE(ConstVal::of_int(3).to_string().empty());
  EXPECT_FALSE(ConstVal::bottom().to_string().empty());
}

TEST(EvalConstTest, FoldsArithmeticLikeTheRuntime) {
  EXPECT_EQ(eval_src("6 * 7"), ConstVal::of_int(42));
  EXPECT_EQ(eval_src("10 - 3"), ConstVal::of_int(7));
  EXPECT_EQ(eval_src("10 / 3"), ConstVal::of_int(3));
  // Python-style modulo: the result takes the divisor's sign.
  EXPECT_EQ(eval_src("(0 - 7) % 3"), ConstVal::of_int(2));
}

TEST(EvalConstTest, DivisionByZeroIsNotFolded) {
  // The runtime raises on /0 and %0; folding would erase that path.
  EXPECT_EQ(eval_src("1 / 0"), ConstVal::bottom());
  EXPECT_EQ(eval_src("1 % 0"), ConstVal::bottom());
}

TEST(EvalConstTest, ComparisonsAndBooleans) {
  EXPECT_EQ(eval_src("3 < 5"), ConstVal::of_bool(true));
  EXPECT_EQ(eval_src("3 >= 5"), ConstVal::of_bool(false));
  EXPECT_EQ(eval_src("3 == 3"), ConstVal::of_bool(true));
  EXPECT_EQ(eval_src("\"a\" == \"a\""), ConstVal::of_bool(true));
  EXPECT_EQ(eval_src("\"a\" != \"b\""), ConstVal::of_bool(true));
  EXPECT_EQ(eval_src("!(1 < 2)"), ConstVal::of_bool(false));
}

TEST(EvalConstTest, ShortCircuitOnlyOffConstLeft) {
  // A Const-false left side decides `and` even when the right side
  // cannot be evaluated (it may fault at runtime — never reached).
  EXPECT_EQ(eval_src("(1 > 2) && (1 / 0 > 0)"), ConstVal::of_bool(false));
  EXPECT_EQ(eval_src("(1 < 2) || (1 / 0 > 0)"), ConstVal::of_bool(true));
  // A non-Const left side means no fold, even if the right is Const.
  ConstEnv env;
  env["a"] = ConstVal::bottom();
  EXPECT_EQ(eval_src("(a > 0) && (1 > 2)", env, "var a = 0;"),
            ConstVal::bottom());
}

TEST(EvalConstTest, LookupPropagatesLattice) {
  ConstEnv env;
  env["a"] = ConstVal::of_int(3);
  EXPECT_EQ(eval_src("a + 4", env, "var a = 0;"), ConstVal::of_int(7));
  // An unknown-yet operand keeps the result optimistic (Top)...
  EXPECT_EQ(eval_src("z + 1", {}, "var z = 0;"), ConstVal::top());
  // ...while an overdefined one pins it at Bottom.
  env["z"] = ConstVal::bottom();
  EXPECT_EQ(eval_src("z + 1", env, "var z = 0;"), ConstVal::bottom());
}

TEST(ConstPropTest, ConstBranchDecidesOneArm) {
  const auto m = lowered(nf_body(R"(x = 1;
    if (x > 0) {
      pkt.ip_ttl = 1;
    } else {
      pkt.ip_ttl = 2;
    }
    send(pkt, 0);)"));
  const ConstProp cp(m.body, {});

  const auto* br = find_kind(m.body, ir::InstrKind::kBranch);
  ASSERT_NE(br, nullptr);
  EXPECT_EQ(cp.branch_decision(br->id), ConstVal::of_bool(true));
  EXPECT_TRUE(cp.edge_executable(br->id, 0));
  EXPECT_FALSE(cp.edge_executable(br->id, 1));

  // The dead arm's store never becomes executable.
  for (const int id : m.body.real_nodes()) {
    const auto& n = m.body.node(id);
    if (n.kind == ir::InstrKind::kFieldStore) {
      const bool is_dead_arm =
          analysis::eval_const(*n.value, [](const ir::Location&) {
            return ConstVal::top();
          }) == ConstVal::of_int(2);
      EXPECT_EQ(cp.node_executable(id), !is_dead_arm);
    }
  }
}

TEST(ConstPropTest, SymbolicBranchKeepsBothArmsLive) {
  const auto m = lowered(nf_body(R"(if (pkt.len > 5) {
      pkt.ip_ttl = 1;
    } else {
      pkt.ip_ttl = 2;
    }
    send(pkt, 0);)"));
  const ConstProp cp(m.body, {});

  const auto* br = find_kind(m.body, ir::InstrKind::kBranch);
  ASSERT_NE(br, nullptr);
  // recv() smashes the packet to Bottom, so the condition is overdefined
  // and both edges stay executable.
  EXPECT_TRUE(cp.branch_decision(br->id).is_bottom());
  EXPECT_TRUE(cp.edge_executable(br->id, 0));
  EXPECT_TRUE(cp.edge_executable(br->id, 1));
  for (const int id : m.body.real_nodes()) {
    EXPECT_TRUE(cp.node_executable(id));
  }
}

TEST(ConstPropTest, MergeMeetsArmValues) {
  const auto agree = lowered(nf_body(R"(if (pkt.len > 5) {
      y = 1;
    } else {
      y = 1;
    }
    pkt.ip_ttl = y;
    send(pkt, 0);)"));
  const ConstProp cp1(agree.body, {});
  const auto* store1 = find_kind(agree.body, ir::InstrKind::kFieldStore);
  ASSERT_NE(store1, nullptr);
  EXPECT_EQ(cp1.value_in(store1->id, "y"), ConstVal::of_int(1));

  const auto differ = lowered(nf_body(R"(if (pkt.len > 5) {
      y = 1;
    } else {
      y = 2;
    }
    pkt.ip_ttl = y;
    send(pkt, 0);)"));
  const ConstProp cp2(differ.body, {});
  const auto* store2 = find_kind(differ.body, ir::InstrKind::kFieldStore);
  ASSERT_NE(store2, nullptr);
  EXPECT_EQ(cp2.value_in(store2->id, "y"), ConstVal::bottom());
}

TEST(ConstPropTest, FieldAndWholeVarLocationsAreDistinct) {
  const auto m = lowered(nf_body(R"(pkt.ip_ttl = 7;
    send(pkt, 0);)"));
  const ConstProp cp(m.body, {});
  const auto* send = find_kind(m.body, ir::InstrKind::kSend);
  ASSERT_NE(send, nullptr);
  // The field store is tracked at field granularity: pkt.ip_ttl is a
  // known constant at the send even though pkt itself (recv result)
  // is Bottom.
  EXPECT_EQ(cp.value_in(send->id, ir::field_loc("pkt", "ip_ttl")),
            ConstVal::of_int(7));
  EXPECT_TRUE(cp.value_in(send->id, "pkt").is_bottom());
  // A sibling field never written stays at recv's smashed Bottom.
  EXPECT_TRUE(cp.value_in(send->id, ir::field_loc("pkt", "ip_tos")).is_bottom());
}

TEST(ConstPropTest, EntryEnvSeedsPersistents) {
  const auto m = lowered(nf_body("pkt.ip_ttl = cap;\n    send(pkt, 0);",
                                 "var cap = 9;"));
  // Seeded Const: the config value flows into the body.
  ConstEnv cfg;
  cfg["cap"] = ConstVal::of_int(9);
  const ConstProp with_cfg(m.body, cfg);
  const auto* send = find_kind(m.body, ir::InstrKind::kSend);
  ASSERT_NE(send, nullptr);
  EXPECT_EQ(with_cfg.value_in(send->id, ir::field_loc("pkt", "ip_ttl")),
            ConstVal::of_int(9));

  // Seeded Bottom (the config-agnostic lint mode): stays unknown.
  ConstEnv agnostic;
  agnostic["cap"] = ConstVal::bottom();
  const ConstProp no_cfg(m.body, agnostic);
  EXPECT_TRUE(
      no_cfg.value_in(send->id, ir::field_loc("pkt", "ip_ttl")).is_bottom());
}

TEST(ConstPropTest, WholeVarAssignSmashesOnlyDefinedFields) {
  // `q` is not packet-typed (a map element), so re-assigning it kills
  // the field facts it has, and only those: ip_tos is stored after the
  // send, so at the send it was never defined and stays Top.
  const auto m = lowered(nf_body(R"(q = tbl[0];
    q.ip_ttl = 7;
    q = tbl[1];
    send(q, 0);
    q.ip_tos = 3;)",
                                 "var tbl = {};"));
  const ConstProp cp(m.body, {});
  const auto* send = find_kind(m.body, ir::InstrKind::kSend);
  ASSERT_NE(send, nullptr);
  EXPECT_TRUE(cp.value_in(send->id, "q").is_bottom());
  EXPECT_TRUE(cp.value_in(send->id, ir::field_loc("q", "ip_ttl")).is_bottom());
  EXPECT_TRUE(cp.value_in(send->id, ir::field_loc("q", "ip_tos")).is_top());
}

TEST(ConstPropTest, PacketDefsSmashEveryPacketField) {
  // recv() and a packet-typed assignment define the whole packet: all
  // 17 fields read Bottom afterwards, written or not.
  const auto m = lowered(nf_body("q = pkt;\n    send(q, 0);"));
  const ConstProp cp(m.body, {});
  const auto* send = find_kind(m.body, ir::InstrKind::kSend);
  ASSERT_NE(send, nullptr);
  ASSERT_EQ(netsim::kPacketFields.size(), 17u);
  for (const auto& spec : netsim::kPacketFields) {
    const std::string f(spec.name);
    EXPECT_TRUE(cp.value_in(send->id, ir::field_loc("pkt", f)).is_bottom())
        << f;
    EXPECT_TRUE(cp.value_in(send->id, ir::field_loc("q", f)).is_bottom())
        << f;
  }
}

TEST(ConstPropTest, StringConstantsMeetByValue) {
  const auto body = [](const char* a, const char* b) {
    return nf_body(std::string("if (pkt.len > 5) {\n      s = \"") + a +
                   "\";\n    } else {\n      s = \"" + b +
                   "\";\n    }\n    send(pkt, 0);");
  };
  const auto agree = lowered(body("lan", "lan"));
  const ConstProp cp1(agree.body, {});
  const auto* send1 = find_kind(agree.body, ir::InstrKind::kSend);
  ASSERT_NE(send1, nullptr);
  EXPECT_EQ(cp1.value_in(send1->id, "s"), ConstVal::of_str("lan"));

  const auto differ = lowered(body("lan", "wan"));
  const ConstProp cp2(differ.body, {});
  const auto* send2 = find_kind(differ.body, ir::InstrKind::kSend);
  ASSERT_NE(send2, nullptr);
  EXPECT_TRUE(cp2.value_in(send2->id, "s").is_bottom());
}

TEST(ConstPropTest, UnmentionedLocationsReadTop) {
  const auto m = lowered(nf_body("pkt.ip_ttl = 7;\n    send(pkt, 0);"));
  const ConstProp cp(m.body, {});
  const auto* send = find_kind(m.body, ir::InstrKind::kSend);
  ASSERT_NE(send, nullptr);
  EXPECT_TRUE(cp.value_in(send->id, "nowhere").is_top());
  EXPECT_TRUE(cp.value_in(send->id, ir::field_loc("nowhere", "ip_ttl")).is_top());

  const lang::SourceLoc loc{1, 1};
  const lang::Binary sum(lang::BinOp::kAdd,
                         std::make_unique<lang::VarRef>("nowhere", loc),
                         std::make_unique<lang::IntLit>(1, loc), loc);
  EXPECT_TRUE(cp.eval_in(send->id, sum).is_top());
  const lang::FieldRef field(std::make_unique<lang::VarRef>("nowhere", loc),
                             "ip_ttl", loc);
  EXPECT_TRUE(cp.eval_in(send->id, field).is_top());
}

}  // namespace
}  // namespace nfactor
