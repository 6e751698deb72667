#include "lang/sema.h"

#include <gtest/gtest.h>

#include "lang/builtins.h"
#include "lang/diagnostics.h"
#include "lang/parser.h"
#include "netsim/packet.h"

namespace nfactor::lang {
namespace {

SemaInfo check(const std::string& src) {
  Program p = parse(src);
  return analyze(p);
}

TEST(Sema, InfersGlobalTypes) {
  const auto info = check(
      "var a = 1;\nvar b = true;\nvar s = \"x\";\nvar t = (1, 2);\n"
      "var l = [1, 2];\nvar m = {};\n");
  EXPECT_EQ(info.globals.at("a"), Type::kInt);
  EXPECT_EQ(info.globals.at("b"), Type::kBool);
  EXPECT_EQ(info.globals.at("s"), Type::kStr);
  EXPECT_EQ(info.globals.at("t"), Type::kTuple);
  EXPECT_EQ(info.globals.at("l"), Type::kList);
  EXPECT_EQ(info.globals.at("m"), Type::kMap);
}

TEST(Sema, GlobalMayReferenceEarlierGlobal) {
  const auto info = check("var a = 5;\nvar b = a + 1;\n");
  EXPECT_EQ(info.globals.at("b"), Type::kInt);
}

TEST(Sema, GlobalMayNotReferenceLaterGlobal) {
  EXPECT_THROW(check("var b = a + 1;\nvar a = 5;\n"), SemaError);
}

TEST(Sema, GlobalInitializerMustBeConst) {
  EXPECT_THROW(check("var a = hash(1);\n"), SemaError);
}

TEST(Sema, DuplicateGlobalRejected) {
  EXPECT_THROW(check("var a = 1;\nvar a = 2;\n"), SemaError);
}

TEST(Sema, ShadowingBuiltinRejected) {
  EXPECT_THROW(check("var len = 1;\n"), SemaError);
  EXPECT_THROW(check("def hash(x) { return x; }\n"), SemaError);
}

TEST(Sema, LocalTypeInference) {
  Program p = parse("def f(pkt) { x = pkt.ip_src; y = x + 1; b = y < 2; }");
  // Force pkt to be a packet via a callback-style second function:
  Program q = parse(
      "def cb(pkt) { x = pkt.ip_src; y = x + 1; b = y < 2; }\n"
      "def main() { sniff(0, cb); }");
  const auto info = analyze(q);
  const auto& locals = info.funcs.at("cb").locals;
  EXPECT_EQ(locals.at("pkt"), Type::kPacket);
  EXPECT_EQ(locals.at("x"), Type::kInt);
  EXPECT_EQ(locals.at("y"), Type::kInt);
  EXPECT_EQ(locals.at("b"), Type::kBool);
  (void)p;
}

TEST(Sema, ParamTypesFlowFromCallSites) {
  const auto info = check(
      "def helper(a, b) { return a + b; }\n"
      "def main() { while (true) { pkt = recv(0); x = helper(1, 2); } }");
  EXPECT_EQ(info.funcs.at("helper").locals.at("a"), Type::kInt);
  EXPECT_EQ(info.funcs.at("helper").return_type, Type::kInt);
}

TEST(Sema, ReturnTypeConflictsRejected) {
  EXPECT_THROW(check("def f(x) { if (x == 1) { return 1; } return true; }\n"
                     "def main() { y = f(1); }"),
               SemaError);
}

// Functions are analyzed in declaration order, so a call chain declared
// callee-first learns one link per round: e's parameter is int only
// after round 4, and the return types only after round 5.
constexpr const char* kLateChain =
    "def e(x) { return x; }\n"
    "def d(x) { return e(x); }\n"
    "def c(x) { return d(x); }\n"
    "def b(x) { return c(x); }\n";

TEST(Sema, CallChainTypesSettleAfterSeveralRounds) {
  const auto info = check(std::string(kLateChain) + "def a() { return b(1); }\n");
  for (const char* f : {"b", "c", "d", "e"}) {
    EXPECT_EQ(info.funcs.at(f).locals.at("x"), Type::kInt) << f;
  }
  for (const char* f : {"a", "b", "c", "d", "e"}) {
    EXPECT_EQ(info.funcs.at(f).return_type, Type::kInt) << f;
  }
}

TEST(Sema, MismatchSeenOnlyByCheckingRoundIsRaised) {
  // b(1) is int only once the chain settles, and only the checking round
  // compares it against `if`'s bool.
  const std::string src = std::string(kLateChain) +
                          "def a() {\n"
                          "  if (b(1)) { }\n"
                          "}\n";
  try {
    check(src);
    FAIL() << "expected a SemaError";
  } catch (const SemaError& err) {
    EXPECT_EQ(err.diag().message, "if condition must be bool, got int");
    EXPECT_EQ(err.diag().loc.line, 6);
  }
}

TEST(Sema, ConditionMustBeBool) {
  EXPECT_THROW(check("def f() { if (1) { } }"), SemaError);
  EXPECT_THROW(check("def f() { while (2 + 3) { } }"), SemaError);
}

TEST(Sema, ForBoundsMustBeInt) {
  EXPECT_THROW(check("def f() { for i in true..false { } }"), SemaError);
}

TEST(Sema, ArithmeticNeedsInts) {
  EXPECT_THROW(check("def f() { x = true + 1; }"), SemaError);
  EXPECT_THROW(check("def f() { x = (1, 2) * 3; }"), SemaError);
}

TEST(Sema, EqualityNeedsMatchingTypes) {
  EXPECT_THROW(check("def f() { x = 1 == true; }"), SemaError);
  EXPECT_THROW(check("def f() { x = (1, 2) == 3; }"), SemaError);
}

TEST(Sema, LogicalNeedsBools) {
  EXPECT_THROW(check("def f() { x = 1 && 2; }"), SemaError);
}

TEST(Sema, InNeedsContainerRhs) {
  EXPECT_THROW(check("def f() { x = 1 in 2; }"), SemaError);
}

TEST(Sema, UnknownVariableRejected) {
  EXPECT_THROW(check("def f() { x = nope + 1; }"), SemaError);
}

TEST(Sema, UnknownFunctionRejected) {
  EXPECT_THROW(check("def f() { x = mystery(); }"), SemaError);
}

TEST(Sema, FunctionArityChecked) {
  EXPECT_THROW(check("def g(a) { return a; }\ndef f() { x = g(1, 2); }"),
               SemaError);
  EXPECT_THROW(check("def f() { x = len(); }"), SemaError);
  EXPECT_THROW(check("def f(p) { send(p); }"), SemaError);
}

TEST(Sema, PacketFieldChecks) {
  EXPECT_THROW(check("def cb(pkt) { x = pkt.bogus_field; }\n"
                     "def main() { sniff(0, cb); }"),
               SemaError);
  EXPECT_THROW(check("def cb(pkt) { pkt.len = 5; }\n"  // read-only
                     "def main() { sniff(0, cb); }"),
               SemaError);
  EXPECT_THROW(check("def cb(pkt) { pkt.in_port = 5; }\n"
                     "def main() { sniff(0, cb); }"),
               SemaError);
}

TEST(Sema, FieldAccessOnNonPacketRejected) {
  EXPECT_THROW(check("def f() { x = 1; y = x.ip_src; }"), SemaError);
}

TEST(Sema, ElementStoreOnNonContainerRejected) {
  EXPECT_THROW(check("def f() { x = 1; x[0] = 2; }"), SemaError);
}

TEST(Sema, RecursionRejected) {
  EXPECT_THROW(check("def f(x) { return f(x); }"), SemaError);
  EXPECT_THROW(check("def a(x) { return b(x); }\ndef b(x) { return a(x); }"),
               SemaError);
}

TEST(Sema, GlobalReadWriteSetsTracked) {
  const auto info = check(
      "var g = 1;\nvar h = 2;\nvar m = {};\n"
      "def f() { x = g; h = 3; m[x] = 1; }\n");
  const auto& fi = info.funcs.at("f");
  EXPECT_TRUE(fi.globals_read.count("g"));
  EXPECT_TRUE(fi.globals_written.count("h"));
  EXPECT_TRUE(fi.globals_written.count("m"));
  EXPECT_FALSE(fi.globals_written.count("g"));
}

TEST(Sema, TupleElementsMustBeInts) {
  EXPECT_THROW(check("def f() { t = (1, true); }"), SemaError);
}

TEST(Sema, VariadicLogAcceptsAnything) {
  EXPECT_NO_THROW(check("def f() { log(\"x\", 1, (2, 3), true); }"));
}

TEST(Builtins, RegistryIsConsistent) {
  EXPECT_NE(find_builtin("recv"), nullptr);
  EXPECT_NE(find_builtin("send"), nullptr);
  EXPECT_EQ(find_builtin("no_such_builtin"), nullptr);
  EXPECT_TRUE(is_pkt_input("recv"));
  EXPECT_TRUE(is_pkt_output("send"));
  EXPECT_FALSE(is_pkt_output("recv"));
  for (const auto& b : all_builtins()) {
    EXPECT_EQ(find_builtin(b.name), &b) << b.name;
  }
}

TEST(Builtins, PacketFieldTable) {
  using netsim::find_packet_field;
  ASSERT_NE(find_packet_field("ip_src"), nullptr);
  EXPECT_TRUE(find_packet_field("ip_src")->writable);
  ASSERT_NE(find_packet_field("len"), nullptr);
  EXPECT_FALSE(find_packet_field("len")->writable);
  EXPECT_FALSE(find_packet_field("in_port")->writable);
  EXPECT_EQ(find_packet_field("nope"), nullptr);
}

}  // namespace
}  // namespace nfactor::lang
