#include "lang/parser.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "lang/diagnostics.h"
#include "nfs/corpus.h"

namespace nfactor::lang {
namespace {

/// Parse an expression by wrapping it into a statement.
ExprPtr parse_expr(const std::string& e) {
  Program p = parse("def f() { x = " + e + "; }");
  auto& body = p.funcs[0].body->stmts;
  auto* assign = static_cast<Assign*>(body[0].get());
  return std::move(assign->value);
}

TEST(Parser, PrecedenceMulOverAdd) {
  EXPECT_EQ(to_source(*parse_expr("1 + 2 * 3")), "(1 + (2 * 3))");
  EXPECT_EQ(to_source(*parse_expr("(1 + 2) * 3")), "((1 + 2) * 3)");
}

TEST(Parser, PrecedenceComparisonOverLogical) {
  EXPECT_EQ(to_source(*parse_expr("a == b && c < d")),
            "((a == b) && (c < d))");
}

TEST(Parser, PrecedenceOrBelowAnd) {
  EXPECT_EQ(to_source(*parse_expr("a || b && c")), "(a || (b && c))");
}

TEST(Parser, LeftAssociativity) {
  EXPECT_EQ(to_source(*parse_expr("1 - 2 - 3")), "((1 - 2) - 3)");
  EXPECT_EQ(to_source(*parse_expr("8 / 4 / 2")), "((8 / 4) / 2)");
}

TEST(Parser, BitwiseBindTighterThanComparison) {
  EXPECT_EQ(to_source(*parse_expr("a & 2 != 0")), "((a & 2) != 0)");
}

TEST(Parser, InOperator) {
  EXPECT_EQ(to_source(*parse_expr("k in m && x == 1")),
            "((k in m) && (x == 1))");
}

TEST(Parser, UnaryOperators) {
  EXPECT_EQ(to_source(*parse_expr("!a")), "!(a)");
  EXPECT_EQ(to_source(*parse_expr("-x + 1")), "(-(x) + 1)");
  EXPECT_EQ(to_source(*parse_expr("!!a")), "!(!(a))");
}

TEST(Parser, TupleVsParenthesized) {
  EXPECT_EQ(parse_expr("(1)")->kind, ExprKind::kIntLit);
  EXPECT_EQ(parse_expr("(1, 2)")->kind, ExprKind::kTupleLit);
  EXPECT_EQ(parse_expr("(a, b, c, d)")->kind, ExprKind::kTupleLit);
}

TEST(Parser, ListAndMapLiterals) {
  EXPECT_EQ(parse_expr("[]")->kind, ExprKind::kListLit);
  EXPECT_EQ(parse_expr("[1, 2, 3]")->kind, ExprKind::kListLit);
  EXPECT_EQ(parse_expr("[(1, 2), (3, 4)]")->kind, ExprKind::kListLit);
  EXPECT_EQ(parse_expr("[1, 2, 3,]")->kind, ExprKind::kListLit);  // trailing
  EXPECT_EQ(parse_expr("{}")->kind, ExprKind::kMapLit);
}

TEST(Parser, IndexAndFieldChains) {
  EXPECT_EQ(to_source(*parse_expr("m[k][0]")), "m[k][0]");
  EXPECT_EQ(to_source(*parse_expr("pkt.ip_src")), "pkt.ip_src");
  EXPECT_EQ(to_source(*parse_expr("servers[i][1] + pkt.dport")),
            "(servers[i][1] + pkt.dport)");
}

TEST(Parser, CallsWithArgs) {
  EXPECT_EQ(to_source(*parse_expr("hash(si) % len(servers)")),
            "(hash(si) % len(servers))");
  EXPECT_EQ(to_source(*parse_expr("f()")), "f()");
}

TEST(Parser, AugmentedAssignDesugars) {
  Program p = parse("def f() { x = 1; x += 2; x -= 3; x *= 4; x %= 5; }");
  const auto& b = p.funcs[0].body->stmts;
  EXPECT_EQ(to_source(*b[1]), "x = (x + 2);\n");
  EXPECT_EQ(to_source(*b[2]), "x = (x - 3);\n");
  EXPECT_EQ(to_source(*b[3]), "x = (x * 4);\n");
  EXPECT_EQ(to_source(*b[4]), "x = (x % 5);\n");
}

TEST(Parser, AugmentedElementAssignDesugars) {
  Program p = parse("def f(m) { m[k] += 1; }");
  EXPECT_EQ(to_source(*p.funcs[0].body->stmts[0]), "m[k] = (m[k] + 1);\n");
}

TEST(Parser, FieldAssignment) {
  Program p = parse("def f(pkt) { pkt.ip_src = 1; pkt.ip_ttl -= 1; }");
  const auto& b = p.funcs[0].body->stmts;
  const auto* a0 = static_cast<const Assign*>(b[0].get());
  EXPECT_EQ(a0->target, Assign::Target::kField);
  EXPECT_EQ(a0->var, "pkt");
  EXPECT_EQ(a0->field, "ip_src");
  EXPECT_EQ(to_source(*b[1]), "pkt.ip_ttl = (pkt.ip_ttl - 1);\n");
}

TEST(Parser, IndexAssignmentVsIndexExpression) {
  Program p = parse("def f(m) { m[k] = 1; x = m[k]; }");
  const auto& b = p.funcs[0].body->stmts;
  EXPECT_EQ(static_cast<const Assign*>(b[0].get())->target,
            Assign::Target::kIndex);
  EXPECT_EQ(static_cast<const Assign*>(b[1].get())->target,
            Assign::Target::kVar);
}

TEST(Parser, ElseIfChains) {
  Program p = parse(R"(def f(x) {
    if (x == 1) { a = 1; } else if (x == 2) { a = 2; } else { a = 3; }
  })");
  const auto* s = static_cast<const If*>(p.funcs[0].body->stmts[0].get());
  ASSERT_NE(s->else_body, nullptr);
  EXPECT_EQ(s->else_body->kind, StmtKind::kIf);
  const auto* ei = static_cast<const If*>(s->else_body.get());
  ASSERT_NE(ei->else_body, nullptr);
  EXPECT_EQ(ei->else_body->kind, StmtKind::kBlock);
}

TEST(Parser, ForRange) {
  Program p = parse("def f() { for i in 0..10 { x = i; } }");
  const auto* f = static_cast<const For*>(p.funcs[0].body->stmts[0].get());
  EXPECT_EQ(f->var, "i");
  EXPECT_EQ(to_source(*f->begin), "0");
  EXPECT_EQ(to_source(*f->end), "10");
}

TEST(Parser, WhileBreakContinueReturn) {
  Program p = parse(R"(def f() {
    while (true) {
      if (a) { break; }
      if (b) { continue; }
      return 1;
    }
    return;
  })");
  EXPECT_EQ(p.funcs[0].body->stmts.size(), 2u);
}

TEST(Parser, GlobalsAndFunctions) {
  Program p = parse("var a = 1;\nvar m = {};\ndef f(x, y) { return x; }\n");
  ASSERT_EQ(p.globals.size(), 2u);
  EXPECT_EQ(p.globals[0].name, "a");
  ASSERT_EQ(p.funcs.size(), 1u);
  EXPECT_EQ(p.funcs[0].params, (std::vector<std::string>{"x", "y"}));
}

TEST(Parser, Errors) {
  EXPECT_THROW(parse("var;"), ParseError);
  EXPECT_THROW(parse("def f() { x = ; }"), ParseError);
  EXPECT_THROW(parse("def f() { if x { } }"), ParseError);
  EXPECT_THROW(parse("def f() { x = 1 }"), ParseError);  // missing ;
  EXPECT_THROW(parse("def f() { "), ParseError);         // unterminated
  EXPECT_THROW(parse("xyzzy"), ParseError);              // bad top level
  EXPECT_THROW(parse("def f() { {1: 2} }"), ParseError);  // non-empty map lit
}

/// `n` copies of `unit` joined together, for deep-expression inputs.
std::string repeat(const std::string& unit, int n) {
  std::string out;
  out.reserve(unit.size() * static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) out += unit;
  return out;
}

void expect_depth_error(const std::string& src,
                        const std::string& code = "NF105") {
  try {
    parse(src);
    FAIL() << "expected DepthError";
  } catch (const DepthError& e) {
    EXPECT_EQ(e.diag().code, code);
    EXPECT_NE(std::string(e.what()).find(code), std::string::npos);
  }
}

TEST(Parser, DeepExpressionsAreRejected) {
  // A flat 50,000-term sum: parsed in a loop, but the tree is a
  // left-leaning spine 50,000 levels deep.
  expect_depth_error("var T = 1" + repeat(" + 1", 50000) + ";");
  // 20,000 nested parentheses and 50,000 chained prefix operators
  // recurse in the parser itself.
  expect_depth_error("var T = " + repeat("(", 20000) + "1" +
                     repeat(")", 20000) + ";");
  expect_depth_error("var T = " + repeat("!", 50000) + "true;");
  expect_depth_error("def f() { x = f" + repeat("(f", 300) + repeat(")", 300) +
                     "; }");
}

TEST(Parser, ExpressionsAtTheDepthLimitParse) {
  // 255 additions make a tree 256 levels deep: the limit itself.
  EXPECT_NO_THROW(parse("var T = 1" + repeat(" + 1", 255) + ";"));
  EXPECT_THROW(parse("var T = 1" + repeat(" + 1", 256) + ";"), DepthError);
  EXPECT_NO_THROW(parse("var T = " + repeat("-", 200) + "1;"));
  // Deep statement nesting is not expression depth.
  EXPECT_NO_THROW(parse("def f() { " + repeat("if (true) { ", 1000) +
                        repeat("} ", 1000) + "}"));
}

/// Statement depth: if/while/for statements enclosing `s`, counting an
/// `else if` as one level inside the `if` it continues.
int stmt_depth(const Stmt& s) {
  switch (s.kind) {
    case StmtKind::kBlock: {
      int d = 0;
      for (const auto& c : static_cast<const Block&>(s).stmts) {
        d = std::max(d, stmt_depth(*c));
      }
      return d;
    }
    case StmtKind::kIf: {
      const auto& i = static_cast<const If&>(s);
      const int e = i.else_body ? stmt_depth(*i.else_body) : 0;
      return 1 + std::max(stmt_depth(*i.then_body), e);
    }
    case StmtKind::kWhile:
      return 1 + stmt_depth(*static_cast<const While&>(s).body);
    case StmtKind::kFor:
      return 1 + stmt_depth(*static_cast<const For&>(s).body);
    default:
      return 0;
  }
}

TEST(Parser, DeepStatementsAreRejected) {
  // 100,000 nested blocks overflowed the stack in lowering before the
  // cap; each compound statement kind counts, and so does each arm of
  // an `else if` chain.
  const std::string guard = "if (pkt.len > 1) { ";
  expect_depth_error("def f() { " + repeat(guard, 100000) +
                         repeat("} ", 100000) + "}",
                     "NF106");
  expect_depth_error("def f() { if (a) { } " + repeat("else if (a) { } ", 2000) +
                         "}",
                     "NF106");
  expect_depth_error("def f() { " + repeat("while (a) { ", 1025) +
                         repeat("} ", 1025) + "}",
                     "NF106");
  expect_depth_error("def f() { " + repeat("for i in 0..2 { ", 1025) +
                         repeat("} ", 1025) + "}",
                     "NF106");

  // 1,024 levels is the limit itself; sibling statements do not add up.
  EXPECT_NO_THROW(parse("def f() { " + repeat("while (a) { ", 1024) +
                        repeat("} ", 1024) + "}"));
  EXPECT_NO_THROW(parse("def f() { " + repeat("if (a) { } ", 5000) + "}"));

  // Every bundled NF parses, far below the cap.
  int deepest = 0;
  for (const auto& e : nfs::corpus()) {
    const Program p = parse(e.source, std::string(e.name));
    for (const auto& f : p.funcs) deepest = std::max(deepest, stmt_depth(*f.body));
  }
  EXPECT_GT(deepest, 1);
  EXPECT_LT(deepest, 16);
}

TEST(Parser, CloneIsDeep) {
  Program p = parse("var g = 1;\ndef f(x) { if (x) { g = 2; } return g; }\n");
  Program q = p.clone();
  // Mutating the clone must not affect the original.
  q.globals[0].name = "renamed";
  static_cast<Assign*>(
      static_cast<Block*>(
          static_cast<If*>(q.funcs[0].body->stmts[0].get())->then_body.get())
          ->stmts[0]
          .get())
      ->var = "other";
  EXPECT_EQ(p.globals[0].name, "g");
  EXPECT_EQ(to_source(p), to_source(parse(to_source(p))));
}

/// Printing then re-parsing then re-printing must be a fixpoint — checked
/// over the whole NF corpus (exercises every syntax form we use).
class RoundTrip : public ::testing::TestWithParam<const char*> {};

TEST_P(RoundTrip, ToSourceIsReparseable) {
  const auto& nf = nfs::find(GetParam());
  Program p = parse(nf.source, std::string(nf.name));
  const std::string once = to_source(p);
  Program q = parse(once, "reprinted");
  EXPECT_EQ(to_source(q), once);
}

INSTANTIATE_TEST_SUITE_P(Corpus, RoundTrip,
                         ::testing::Values("lb", "balance", "snort_lite",
                                           "nat", "firewall", "monitor",
                                           "l2_switch", "dpi", "heavy_hitter",
                                           "synflood"));

}  // namespace
}  // namespace nfactor::lang
