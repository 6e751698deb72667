// Path-constraint solver: satisfiability decisions on the fragment NF
// branch conditions generate.
#include "symex/solver.h"

#include <gtest/gtest.h>

namespace nfactor::symex {
namespace {

using lang::BinOp;

SymRef v(const char* name) { return make_var(name, VarClass::kPkt); }

SatResult check(std::vector<SymRef> cs) {
  Solver s;
  return s.check(cs);
}

TEST(Solver, EmptyIsSat) { EXPECT_EQ(check({}), SatResult::kSat); }

TEST(Solver, ConstantsFold) {
  EXPECT_EQ(check({make_bool(true)}), SatResult::kSat);
  EXPECT_EQ(check({make_bool(false)}), SatResult::kUnsat);
}

TEST(Solver, EqualityConflict) {
  const SymRef x = v("pkt.dport");
  EXPECT_EQ(check({make_bin(BinOp::kEq, x, make_int(80)),
                   make_bin(BinOp::kEq, x, make_int(23))}),
            SatResult::kUnsat);
  EXPECT_EQ(check({make_bin(BinOp::kEq, x, make_int(80)),
                   make_bin(BinOp::kEq, x, make_int(80))}),
            SatResult::kSat);
}

TEST(Solver, EqNeConflict) {
  const SymRef x = v("pkt.dport");
  EXPECT_EQ(check({make_bin(BinOp::kEq, x, make_int(80)),
                   make_bin(BinOp::kNe, x, make_int(80))}),
            SatResult::kUnsat);
  EXPECT_EQ(check({make_bin(BinOp::kEq, x, make_int(80)),
                   make_bin(BinOp::kNe, x, make_int(81))}),
            SatResult::kSat);
}

TEST(Solver, BoundsConflict) {
  const SymRef x = v("pkt.ip_ttl");
  EXPECT_EQ(check({make_bin(BinOp::kLt, x, make_int(5)),
                   make_bin(BinOp::kGt, x, make_int(10))}),
            SatResult::kUnsat);
  EXPECT_EQ(check({make_bin(BinOp::kGe, x, make_int(5)),
                   make_bin(BinOp::kLe, x, make_int(5))}),
            SatResult::kSat);
  EXPECT_EQ(check({make_bin(BinOp::kGt, x, make_int(5)),
                   make_bin(BinOp::kLe, x, make_int(5))}),
            SatResult::kUnsat);
}

TEST(Solver, BoundsPlusEquality) {
  const SymRef x = v("pkt.len");
  EXPECT_EQ(check({make_bin(BinOp::kEq, x, make_int(100)),
                   make_bin(BinOp::kGt, x, make_int(512))}),
            SatResult::kUnsat);
  EXPECT_EQ(check({make_bin(BinOp::kEq, x, make_int(600)),
                   make_bin(BinOp::kGt, x, make_int(512))}),
            SatResult::kSat);
}

TEST(Solver, SmallRangeExhaustedByDisequalities) {
  const SymRef x = v("pkt.ip_tos");
  std::vector<SymRef> cs = {make_bin(BinOp::kGe, x, make_int(0)),
                            make_bin(BinOp::kLe, x, make_int(2)),
                            make_bin(BinOp::kNe, x, make_int(0)),
                            make_bin(BinOp::kNe, x, make_int(1)),
                            make_bin(BinOp::kNe, x, make_int(2))};
  EXPECT_EQ(check(cs), SatResult::kUnsat);
  cs.pop_back();
  EXPECT_EQ(check(cs), SatResult::kSat);
}

TEST(Solver, TermEqualityPropagates) {
  const SymRef x = v("a");
  const SymRef y = v("b");
  const SymRef z = v("c");
  // a == b, b == c, a == 1, c == 2 -> conflict via union-find merge.
  EXPECT_EQ(check({make_bin(BinOp::kEq, x, y), make_bin(BinOp::kEq, y, z),
                   make_bin(BinOp::kEq, x, make_int(1)),
                   make_bin(BinOp::kEq, z, make_int(2))}),
            SatResult::kUnsat);
}

TEST(Solver, TermDisequalityAfterMerge) {
  const SymRef x = v("a");
  const SymRef y = v("b");
  EXPECT_EQ(check({make_bin(BinOp::kEq, x, y), make_bin(BinOp::kNe, x, y)}),
            SatResult::kUnsat);
  EXPECT_EQ(check({make_bin(BinOp::kNe, x, y)}), SatResult::kSat);
}

TEST(Solver, LinearOffsetsNormalize) {
  const SymRef x = v("cur_port");
  // x + 1 == 5 and x == 4 are consistent; x + 1 == 5 and x == 9 are not.
  const SymRef xp1 = make_bin(BinOp::kAdd, x, make_int(1));
  EXPECT_EQ(check({make_bin(BinOp::kEq, xp1, make_int(5)),
                   make_bin(BinOp::kEq, x, make_int(4))}),
            SatResult::kSat);
  EXPECT_EQ(check({make_bin(BinOp::kEq, xp1, make_int(5)),
                   make_bin(BinOp::kEq, x, make_int(9))}),
            SatResult::kUnsat);
}

TEST(Solver, TupleEqualityDecomposes) {
  const SymRef t1 = make_tuple({v("pkt.ip_src"), v("pkt.sport")});
  const SymRef t2 = make_tuple_const({10, 1234});
  EXPECT_EQ(check({make_bin(BinOp::kEq, t1, t2),
                   make_bin(BinOp::kEq, v("pkt.ip_src"), make_int(10))}),
            SatResult::kSat);
  EXPECT_EQ(check({make_bin(BinOp::kEq, t1, t2),
                   make_bin(BinOp::kEq, v("pkt.ip_src"), make_int(99))}),
            SatResult::kUnsat);
}

TEST(Solver, TupleArityMismatchUnsat) {
  const SymRef t1 = make_tuple({v("a"), v("b")});
  const SymRef t3 = make_tuple({v("a"), v("b"), v("c")});
  EXPECT_EQ(check({make_bin(BinOp::kEq, t1, t3)}), SatResult::kUnsat);
}

TEST(Solver, BooleanAtomPolarityConflict) {
  const SymRef c = make_contains(make_map_base("nat"),
                                 make_tuple({v("pkt.ip_src"), v("pkt.sport")}));
  EXPECT_EQ(check({c, negate(c)}), SatResult::kUnsat);
  EXPECT_EQ(check({c, c}), SatResult::kSat);
  EXPECT_EQ(check({negate(c), negate(c)}), SatResult::kSat);
}

TEST(Solver, UninterpretedCallPolarity) {
  const SymRef p = make_call("payload_contains",
                             {v("pkt.__payload"), make_str("attack")});
  EXPECT_EQ(check({p, negate(p)}), SatResult::kUnsat);
  EXPECT_EQ(check({p}), SatResult::kSat);
}

TEST(Solver, ConjunctionSplits) {
  const SymRef a = make_bin(BinOp::kEq, v("x"), make_int(1));
  const SymRef b = make_bin(BinOp::kEq, v("x"), make_int(2));
  // (a && b) alone is unsat (x can't be both).
  EXPECT_EQ(check({make_bin(BinOp::kAnd, a, b)}), SatResult::kUnsat);
}

TEST(Solver, DeMorganOnNegatedConjunction) {
  const SymRef proto = v("pkt.ip_proto");
  const SymRef dport = v("pkt.dport");
  const SymRef match = make_bin(
      BinOp::kAnd, make_bin(BinOp::kEq, proto, make_int(6)),
      make_bin(BinOp::kEq, dport, make_int(23)));
  // !(proto==6 && dport==23) with proto==6 and dport==23 pinned: UNSAT.
  EXPECT_EQ(check({negate(match), make_bin(BinOp::kEq, proto, make_int(6)),
                   make_bin(BinOp::kEq, dport, make_int(23))}),
            SatResult::kUnsat);
  // With dport==80 it's satisfiable.
  EXPECT_EQ(check({negate(match), make_bin(BinOp::kEq, proto, make_int(6)),
                   make_bin(BinOp::kEq, dport, make_int(80))}),
            SatResult::kSat);
}

TEST(Solver, DisjunctionCaseSplit) {
  const SymRef x = v("x");
  const SymRef either = make_bin(
      BinOp::kOr, make_bin(BinOp::kEq, x, make_int(1)),
      make_bin(BinOp::kEq, x, make_int(2)));
  EXPECT_EQ(check({either, make_bin(BinOp::kEq, x, make_int(2))}),
            SatResult::kSat);
  EXPECT_EQ(check({either, make_bin(BinOp::kEq, x, make_int(3))}),
            SatResult::kUnsat);
}

TEST(Solver, NegatedDisjunctionIsConjunction) {
  const SymRef x = v("x");
  const SymRef either = make_bin(
      BinOp::kOr, make_bin(BinOp::kEq, x, make_int(1)),
      make_bin(BinOp::kEq, x, make_int(2)));
  // !(x==1 || x==2) && x==1 -> UNSAT.
  EXPECT_EQ(check({negate(either), make_bin(BinOp::kEq, x, make_int(1))}),
            SatResult::kUnsat);
  EXPECT_EQ(check({negate(either), make_bin(BinOp::kEq, x, make_int(7))}),
            SatResult::kSat);
}

TEST(Solver, NestedSplitsAcrossMultipleRules) {
  // Three negated rule-matches plus pins, as the IDS pass-path generates.
  const SymRef proto = v("pkt.ip_proto");
  const SymRef dport = v("pkt.dport");
  auto rule = [&](Int p, Int d) {
    return make_bin(BinOp::kAnd, make_bin(BinOp::kEq, proto, make_int(p)),
                    make_bin(BinOp::kEq, dport, make_int(d)));
  };
  std::vector<SymRef> cs = {negate(rule(6, 23)), negate(rule(6, 8080)),
                            negate(rule(17, 69)),
                            make_bin(BinOp::kEq, proto, make_int(6)),
                            make_bin(BinOp::kEq, dport, make_int(80))};
  EXPECT_EQ(check(cs), SatResult::kSat);
  cs.back() = make_bin(BinOp::kEq, dport, make_int(8080));
  EXPECT_EQ(check(cs), SatResult::kUnsat);
}

TEST(Solver, TwoTermOrderingConflicts) {
  const SymRef x = v("x");
  const SymRef y = v("y");
  // x >= y && x < y -> UNSAT.
  EXPECT_EQ(check({make_bin(BinOp::kGe, x, y), make_bin(BinOp::kLt, x, y)}),
            SatResult::kUnsat);
  // x < y && y < x -> UNSAT (direction canonicalization).
  EXPECT_EQ(check({make_bin(BinOp::kLt, x, y), make_bin(BinOp::kLt, y, x)}),
            SatResult::kUnsat);
  // x <= y && x >= y && x != y -> UNSAT.
  EXPECT_EQ(check({make_bin(BinOp::kLe, x, y), make_bin(BinOp::kGe, x, y),
                   make_bin(BinOp::kNe, x, y)}),
            SatResult::kUnsat);
  // x < y && x != y -> SAT.
  EXPECT_EQ(check({make_bin(BinOp::kLt, x, y), make_bin(BinOp::kNe, x, y)}),
            SatResult::kSat);
  // x == y && x < y -> UNSAT.
  EXPECT_EQ(check({make_bin(BinOp::kEq, x, y), make_bin(BinOp::kLt, x, y)}),
            SatResult::kUnsat);
}

TEST(Solver, SameTermOffsetRelations) {
  const SymRef x = v("x");
  const SymRef xp1 = make_bin(BinOp::kAdd, x, make_int(1));
  EXPECT_EQ(check({make_bin(BinOp::kGt, xp1, x)}), SatResult::kSat);
  EXPECT_EQ(check({make_bin(BinOp::kLt, xp1, x)}), SatResult::kUnsat);
  EXPECT_EQ(check({make_bin(BinOp::kEq, xp1, x)}), SatResult::kUnsat);
}

TEST(Solver, OpaqueTermOrderingViaLinearization) {
  // MapGet-based terms (the monitor rate-limiter's condition shapes).
  const SymRef g = make_map_get(make_map_base("cnt"),
                                make_tuple({v("pkt.ip_src")}));
  const SymRef limit = make_var("LIMIT", VarClass::kCfg);
  EXPECT_EQ(check({make_bin(BinOp::kGe, g, limit),
                   make_bin(BinOp::kLt, g, limit)}),
            SatResult::kUnsat);
  const SymRef nb = make_bin(BinOp::kAdd, g, v("pkt.len"));
  EXPECT_EQ(check({make_bin(BinOp::kGt, nb, limit),
                   make_bin(BinOp::kLe, nb, limit)}),
            SatResult::kUnsat);
}

TEST(Solver, PacketFieldWidthBounds) {
  // Header fields carry intrinsic width bounds.
  EXPECT_EQ(check({make_bin(BinOp::kGt, v("pkt.dport"), make_int(70000))}),
            SatResult::kUnsat);
  EXPECT_EQ(check({make_bin(BinOp::kGt, v("pkt.dport"), make_int(60000))}),
            SatResult::kSat);
  EXPECT_EQ(check({make_bin(BinOp::kLt, v("pkt.ip_ttl"), make_int(0))}),
            SatResult::kUnsat);
  EXPECT_EQ(check({make_bin(BinOp::kEq, v("pkt.tcp_flags"), make_int(300))}),
            SatResult::kUnsat);
  // Multi-packet prefixes get the same bounds.
  EXPECT_EQ(check({make_bin(BinOp::kGt,
                            make_var("pkt2.dport", VarClass::kPkt),
                            make_int(70000))}),
            SatResult::kUnsat);
  // Non-packet symbols are unbounded.
  EXPECT_EQ(check({make_bin(BinOp::kGt, make_var("cur_port", VarClass::kState),
                            make_int(70000))}),
            SatResult::kSat);
}

TEST(Solver, ModuloResultBounds) {
  const SymRef m4 = make_bin(BinOp::kMod, v("x"), make_int(4));
  EXPECT_EQ(check({make_bin(BinOp::kEq, m4, make_int(5))}), SatResult::kUnsat);
  EXPECT_EQ(check({make_bin(BinOp::kEq, m4, make_int(3))}), SatResult::kSat);
  EXPECT_EQ(check({make_bin(BinOp::kGt, m4, make_int(3))}), SatResult::kUnsat);
  EXPECT_EQ(check({make_bin(BinOp::kLt, m4, make_int(0))}), SatResult::kUnsat);
}

TEST(Solver, MaskResultBounds) {
  const SymRef masked = make_bin(BinOp::kBitAnd, v("pkt.tcp_flags"), make_int(2));
  EXPECT_EQ(check({make_bin(BinOp::kEq, masked, make_int(4))}),
            SatResult::kUnsat);
  EXPECT_EQ(check({make_bin(BinOp::kEq, masked, make_int(2))}),
            SatResult::kSat);
  EXPECT_EQ(check({make_bin(BinOp::kGt, masked, make_int(2))}),
            SatResult::kUnsat);
}

TEST(Solver, FiniteRangeTermPlusOffsetThatWrapsStaysOpaque) {
  // The DSL's + wraps: pkt.ip_ttl + MAX is negative for every ttl >= 1,
  // so neither sign of the sum may be refuted.
  const SymRef kMax = make_int(INT64_MAX);
  const SymRef ttl = v("pkt.ip_ttl");
  const SymRef sum = make_bin(BinOp::kAdd, ttl, kMax);
  EXPECT_EQ(check({make_bin(BinOp::kLt, sum, make_int(0))}), SatResult::kSat);
  EXPECT_EQ(check({make_bin(BinOp::kGe, sum, make_int(0))}), SatResult::kSat);
  // Constant on the left, and the same for `% c` and `& mask` terms.
  EXPECT_EQ(check({make_bin(BinOp::kGt, make_int(0),
                            make_bin(BinOp::kAdd, kMax, ttl))}),
            SatResult::kSat);
  const SymRef m4 = make_bin(BinOp::kMod, v("x"), make_int(4));
  EXPECT_EQ(check({make_bin(BinOp::kLt, make_bin(BinOp::kAdd, m4, kMax),
                            make_int(0))}),
            SatResult::kSat);
  const SymRef masked = make_bin(BinOp::kBitAnd, ttl, make_int(128));
  EXPECT_EQ(check({make_bin(BinOp::kLt, make_bin(BinOp::kAdd, masked, kMax),
                            make_int(0))}),
            SatResult::kSat);
  // Subtracting past INT64_MIN wraps the same way.
  const SymRef kMin = make_int(INT64_MIN);
  const SymRef below = make_bin(BinOp::kSub, make_bin(BinOp::kAdd, ttl, kMin),
                                make_int(1));
  EXPECT_EQ(check({make_bin(BinOp::kGt, below, make_int(0))}),
            SatResult::kSat);
  // Offsets that stay inside int64 for the whole range are still exact.
  const SymRef near = make_bin(BinOp::kAdd, ttl, make_int(INT64_MAX - 255));
  EXPECT_EQ(check({make_bin(BinOp::kLt, near, make_int(0))}),
            SatResult::kUnsat);
}

TEST(Solver, OverflowingOffsetSumsAreDeclined) {
  // (ttl + MAX) + MAX wraps to ttl - 2: the offsets' sum leaves int64, so
  // the solver keeps the expression opaque instead of adding them.
  const SymRef kMax = make_int(INT64_MAX);
  const SymRef x = v("x");
  const SymRef twice =
      make_bin(BinOp::kAdd, make_bin(BinOp::kAdd, x, kMax), kMax);
  EXPECT_EQ(check({make_bin(BinOp::kEq, twice, make_int(5)),
                   make_bin(BinOp::kEq, x, make_int(7))}),
            SatResult::kSat);
  // A bound that leaves int64 (x - 1 < MAX, i.e. x < MAX + 1) is no
  // constraint on x.
  EXPECT_EQ(check({make_bin(BinOp::kLt, make_bin(BinOp::kSub, x, make_int(1)),
                            kMax),
                   make_bin(BinOp::kEq, x, kMax)}),
            SatResult::kSat);
}

TEST(Solver, QueryCountIncrements) {
  Solver s;
  s.check({make_bool(true)});
  s.check({make_bool(true)});
  EXPECT_EQ(s.query_count(), 2u);
}

TEST(Solver, SoundnessNeverUnsatOnSatisfiable) {
  // A grab-bag of satisfiable constraint sets the solver must not refute.
  const SymRef x = v("x");
  const SymRef y = v("y");
  EXPECT_EQ(check({make_bin(BinOp::kLt, x, y)}), SatResult::kSat);
  EXPECT_EQ(check({make_bin(BinOp::kEq, make_bin(BinOp::kMul, x, y),
                            make_int(6))}),
            SatResult::kSat);
  EXPECT_EQ(check({make_bin(BinOp::kEq,
                            make_call("hash", {x}), make_int(7))}),
            SatResult::kSat);
}

}  // namespace
}  // namespace nfactor::symex
