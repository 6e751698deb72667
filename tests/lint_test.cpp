// Unit tests for the nf-lint diagnostics engine: the DiagnosticSink
// container, the check catalog, and each NF1xx/NF2xx/NF3xx check firing
// on a minimal trigger while staying quiet on the bundled corpus.
#include "lint/lint.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "fuzz/program_gen.h"
#include "lang/diagnostics.h"
#include "nfactor/pipeline.h"
#include "nfs/corpus.h"
#include "obs/tracer.h"
#include "tests/test_util.h"

namespace nfactor {
namespace {

using lang::DiagnosticSink;
using lang::Severity;
using testutil::nf_body;

std::vector<std::string> codes(const DiagnosticSink& sink) {
  std::vector<std::string> v;
  for (const auto& d : sink.diagnostics()) v.push_back(d.code);
  return v;
}

bool has_code(const DiagnosticSink& sink, const std::string& code) {
  const auto v = codes(sink);
  return std::find(v.begin(), v.end(), code) != v.end();
}

DiagnosticSink lint(const std::string& source) {
  DiagnosticSink sink;
  lint::lint_source(source, "<test>", sink);
  return sink;
}

TEST(DiagnosticSinkTest, CountsBySeverity) {
  DiagnosticSink sink;
  EXPECT_TRUE(sink.empty());
  sink.report({{1, 1}, "a note", Severity::kNote, "NF205"});
  sink.report({{2, 1}, "a warning", Severity::kWarning, "NF202"});
  sink.report({{3, 1}, "an error", Severity::kError, "NF102"});
  EXPECT_EQ(sink.size(), 3u);
  EXPECT_EQ(sink.notes(), 1);
  EXPECT_EQ(sink.warnings(), 1);
  EXPECT_EQ(sink.errors(), 1);
  EXPECT_TRUE(sink.has_errors());
}

TEST(DiagnosticSinkTest, RenderTextSortsByLocation) {
  DiagnosticSink sink;
  sink.report({{9, 3}, "later", Severity::kWarning, "NF202"});
  sink.report({{2, 5}, "earlier", Severity::kWarning, "NF203"});
  const std::string text = sink.render_text("u.nf");
  const auto first = text.find("u.nf:2:5: warning: NF203: earlier");
  const auto second = text.find("u.nf:9:3: warning: NF202: later");
  EXPECT_NE(first, std::string::npos);
  EXPECT_NE(second, std::string::npos);
  EXPECT_LT(first, second);
}

TEST(DiagnosticSinkTest, RenderOmitsCodeWhenEmpty) {
  // Ad-hoc frontend errors (no code) keep the historical rendering.
  const lang::Diagnostic d{{4, 7}, "boom", Severity::kError, {}};
  EXPECT_EQ(d.render("u.nf"), "u.nf:4:7: boom");
  const lang::Diagnostic coded{{4, 7}, "boom", Severity::kError, "NF104"};
  EXPECT_EQ(coded.render("u.nf"), "u.nf:4:7: error: NF104: boom");
}

TEST(DiagnosticSinkTest, RenderJsonShape) {
  DiagnosticSink sink;
  sink.report({{2, 5}, "msg with \"quotes\"", Severity::kWarning, "NF202"});
  const std::string json = sink.render_json("u.nf");
  EXPECT_NE(json.find("\"unit\":\"u.nf\""), std::string::npos);
  EXPECT_NE(json.find("\"code\":\"NF202\""), std::string::npos);
  EXPECT_NE(json.find("\"severity\":\"warning\""), std::string::npos);
  EXPECT_NE(json.find("\\\"quotes\\\""), std::string::npos);
  EXPECT_NE(json.find("\"warning\":1"), std::string::npos);

  DiagnosticSink clean;
  EXPECT_NE(clean.render_json().find("\"diagnostics\":[]"),
            std::string::npos);
}

TEST(LintCatalogTest, CatalogIsStable) {
  const auto& cat = lint::checks();
  EXPECT_EQ(cat.size(), 9u);
  std::set<std::string> seen;
  for (const auto& c : cat) {
    EXPECT_TRUE(seen.insert(c.code).second) << "duplicate " << c.code;
    EXPECT_FALSE(c.name.empty());
    EXPECT_FALSE(c.summary.empty());
    if (c.code == "NF205") {
      EXPECT_EQ(c.severity, Severity::kNote);
    } else {
      EXPECT_EQ(c.severity, Severity::kWarning);
    }
  }
  EXPECT_TRUE(seen.count("NF201"));
  EXPECT_TRUE(seen.count("NF207"));
  EXPECT_TRUE(seen.count("NF208"));
  EXPECT_TRUE(seen.count("NF301"));
}

TEST(LintCheckTest, NF201UseBeforeInit) {
  const auto sink = lint(nf_body(R"(if (pkt.len > 100) {
      mark = 1;
    }
    pkt.ip_tos = mark;
    send(pkt, 0);)"));
  EXPECT_TRUE(has_code(sink, "NF201")) << sink.render_text();
}

TEST(LintCheckTest, NF201QuietWhenBothArmsAssign) {
  const auto sink = lint(nf_body(R"(if (pkt.len > 100) {
      mark = 1;
    } else {
      mark = 0;
    }
    pkt.ip_tos = mark;
    send(pkt, 0);)"));
  EXPECT_FALSE(has_code(sink, "NF201")) << sink.render_text();
}

TEST(LintCheckTest, NF202DeadStore) {
  const auto sink = lint(nf_body(R"(tmp = pkt.len + 1;
    send(pkt, 0);)"));
  EXPECT_TRUE(has_code(sink, "NF202")) << sink.render_text();
}

TEST(LintCheckTest, NF203WriteOnlyState) {
  const auto sink = lint(nf_body(R"(stamps = pkt.len;
    send(pkt, 0);)",
                                 "var stamps = 0;"));
  EXPECT_TRUE(has_code(sink, "NF203")) << sink.render_text();
}

TEST(LintCheckTest, NF203QuietOnReadState) {
  const auto sink = lint(nf_body(R"(total = total + pkt.len;
    if (total > 1000) {
      pkt.ip_tos = 1;
    }
    send(pkt, 0);)",
                                 "var total = 0;"));
  EXPECT_FALSE(has_code(sink, "NF203")) << sink.render_text();
}

TEST(LintCheckTest, NF204UnreachableArm) {
  const auto sink = lint(nf_body(R"(threshold = 100;
    if (threshold < 50) {
      pkt.ip_ttl = 1;
    }
    send(pkt, 0);)"));
  EXPECT_TRUE(has_code(sink, "NF204")) << sink.render_text();
}

TEST(LintCheckTest, NF204ConfigAgnostic) {
  // A branch on a persistent config scalar must NOT be reported dead,
  // even when the current initializer would decide it: the lint verdict
  // has to hold for every config, so persistents seed at Bottom.
  const auto sink = lint(nf_body(R"(if (limit < 50) {
      pkt.ip_ttl = 1;
    }
    send(pkt, 0);)",
                                 "var limit = 100;"));
  EXPECT_FALSE(has_code(sink, "NF204")) << sink.render_text();
}

TEST(LintCheckTest, NF205LogVarGuard) {
  const auto sink = lint(nf_body(R"(hits = hits + 1;
    if (hits > 10) {
      log(hits);
    }
    send(pkt, 0);)",
                                 "var hits = 0;"));
  EXPECT_TRUE(has_code(sink, "NF205")) << sink.render_text();
  // NF205 is a note: it never makes an NF "unclean".
  EXPECT_EQ(sink.warnings(), 0) << sink.render_text();
  EXPECT_GT(sink.notes(), 0);
}

TEST(LintCheckTest, NF206WeakUpdateShadowing) {
  const auto sink = lint(nf_body(R"(k = (pkt.ip_src, pkt.ip_dst);
    seen[k] = 1;
    seen[k] = 2;
    send(pkt, 0);)",
                                 "var seen = {};"));
  EXPECT_TRUE(has_code(sink, "NF206")) << sink.render_text();
}

TEST(LintCheckTest, NF206QuietWhenReadBetween) {
  const auto sink = lint(nf_body(R"(k = (pkt.ip_src, pkt.ip_dst);
    seen[k] = 1;
    seen[k] = seen[k] + 1;
    send(pkt, 0);)",
                                 "var seen = {};"));
  EXPECT_FALSE(has_code(sink, "NF206")) << sink.render_text();
}

TEST(LintCheckTest, NF207InvalidSendPort) {
  const auto sink = lint(nf_body("send(pkt, 99999);"));
  EXPECT_TRUE(has_code(sink, "NF207")) << sink.render_text();
}

TEST(LintCheckTest, NF207SeesThroughConfig) {
  // NF207 runs with config-folded seeds, so an out-of-range port that
  // arrives via a config scalar is still caught.
  const auto sink = lint(nf_body("send(pkt, OUT);", "var OUT = 70000;"));
  EXPECT_TRUE(has_code(sink, "NF207")) << sink.render_text();
}

TEST(LintCheckTest, NF208DuplicateArmFalseEdge) {
  // The second identical test sits on the first one's fall-through
  // path: its true arm can never run.
  const auto sink = lint(nf_body(R"(if (pkt.dport == 22) {
      send(pkt, 1);
      return;
    }
    if (pkt.dport == 22) {
      send(pkt, 2);
      return;
    }
    send(pkt, 0);
    return;)"));
  EXPECT_TRUE(has_code(sink, "NF208")) << sink.render_text();
}

TEST(LintCheckTest, NF208DuplicateArmTrueEdge) {
  // Nested re-test inside the taken arm: the inner else is dead.
  const auto sink = lint(nf_body(R"(if (pkt.dport == 22) {
      if (pkt.dport == 22) {
        send(pkt, 1);
        return;
      }
      send(pkt, 3);
      return;
    }
    send(pkt, 0);
    return;)"));
  EXPECT_TRUE(has_code(sink, "NF208")) << sink.render_text();
}

TEST(LintCheckTest, NF208QuietWhenGuardInputRedefined) {
  // The packet field the guard reads is rewritten between the two
  // tests, so the second test is a genuine re-check.
  const auto sink = lint(nf_body(R"(if (pkt.dport == 22) {
      pkt.dport = 23;
    }
    if (pkt.dport == 22) {
      send(pkt, 2);
      return;
    }
    send(pkt, 0);
    return;)"));
  EXPECT_FALSE(has_code(sink, "NF208")) << sink.render_text();
}

TEST(LintCheckTest, NF208QuietOnDistinctConditions) {
  const auto sink = lint(nf_body(R"(if (pkt.dport == 22) {
      send(pkt, 1);
      return;
    }
    if (pkt.dport == 80) {
      send(pkt, 2);
      return;
    }
    send(pkt, 0);
    return;)"));
  EXPECT_FALSE(has_code(sink, "NF208")) << sink.render_text();
}

TEST(LintCheckTest, NF301VacuousModel) {
  const auto sink = lint(nf_body("pkt.ip_ttl = 1;"));
  EXPECT_TRUE(has_code(sink, "NF301")) << sink.render_text();
}

TEST(LintFrontendTest, ParseErrorBecomesNF102) {
  DiagnosticSink sink;
  const bool ok = lint::lint_source("def main( {", "<test>", sink);
  EXPECT_FALSE(ok);
  EXPECT_TRUE(sink.has_errors());
  EXPECT_TRUE(has_code(sink, "NF102")) << sink.render_text();
}

TEST(LintFrontendTest, DeepExpressionBecomesNF105) {
  DiagnosticSink sink;
  std::string sum = "1";
  for (int i = 0; i < 5000; ++i) sum += " + 1";
  const bool ok = lint::lint_source(nf_body("x = " + sum + ";"), "<test>", sink);
  EXPECT_FALSE(ok);
  EXPECT_TRUE(has_code(sink, "NF105")) << sink.render_text();
  EXPECT_FALSE(has_code(sink, "NF102")) << sink.render_text();
}

TEST(LintFrontendTest, DeepStatementBecomesNF106) {
  DiagnosticSink sink;
  std::string body;
  for (int i = 0; i < 100000; ++i) body += "if (pkt.len > 1) { ";
  body += "send(pkt, 0);";
  for (int i = 0; i < 100000; ++i) body += " }";
  const bool ok = lint::lint_source(nf_body(body), "<test>", sink);
  EXPECT_FALSE(ok);
  EXPECT_TRUE(has_code(sink, "NF106")) << sink.render_text();
  EXPECT_FALSE(has_code(sink, "NF102")) << sink.render_text();
}

TEST(LintFrontendTest, SynthesisErrorsNameTheUnitLikeLint) {
  // The synthesis path throws; lint reports into a sink. Both render
  // the same `unit:line:col:` diagnostic.
  std::string sum = "1";
  for (int i = 0; i < 300; ++i) sum += " + 1";
  std::string nest;
  for (int i = 0; i < 1100; ++i) nest += "if (pkt.len > 1) { ";
  for (int i = 0; i < 1100; ++i) nest += "} ";
  for (const std::string& src :
       {nf_body("x = " + sum + ";"), nf_body(nest), std::string("def main( {")}) {
    DiagnosticSink sink;
    EXPECT_FALSE(lint::lint_source(src, "f.nf", sink));
    ASSERT_EQ(sink.size(), 1u);
    try {
      pipeline::run_source(src, "f.nf");
      ADD_FAILURE() << "expected a frontend error";
    } catch (const lang::FrontendError& e) {
      const std::string what = e.what();
      EXPECT_EQ(what.rfind("f.nf:", 0), 0u) << what;
      if (e.diag().code.empty()) {
        // Uncoded errors (here: a ParseError) render without a code; the
        // lint sink files them as NF101-NF104.
        const auto& d = sink.diagnostics()[0];
        EXPECT_EQ(what, "f.nf:" + std::to_string(d.loc.line) + ":" +
                            std::to_string(d.loc.col) + ": " + d.message);
      } else {
        EXPECT_EQ(what + "\n", sink.render_text("f.nf"));
      }
    }
  }
}

TEST(LintFrontendTest, SemaErrorBecomesNF103) {
  DiagnosticSink sink;
  // Two mains: structurally valid syntax, rejected by sema.
  const bool ok = lint::lint_source(
      "def main() { while (true) { pkt = recv(0); send(pkt, 0); } }\n"
      "def main() { while (true) { pkt = recv(0); send(pkt, 0); } }\n",
      "<test>", sink);
  EXPECT_FALSE(ok);
  EXPECT_TRUE(sink.has_errors()) << sink.render_text();
}

TEST(LintCorpusTest, EveryBundledNfIsClean) {
  for (const auto& e : nfs::corpus()) {
    DiagnosticSink sink;
    const bool ok =
        lint::lint_source(std::string(e.source), std::string(e.name), sink);
    EXPECT_TRUE(ok) << e.name;
    EXPECT_EQ(sink.errors(), 0) << sink.render_text(std::string(e.name));
    EXPECT_EQ(sink.warnings(), 0) << sink.render_text(std::string(e.name));
  }
}

// lint.run_checks splits into one child span per analysis the checks
// read (the PDG with StateAlyzer, liveness, the config-agnostic and the
// configured SCCP run) and one for the checks themselves, in that order.
TEST(LintSpansTest, RunChecksHasOneChildSpanPerStage) {
  obs::default_tracer().clear();
  DiagnosticSink sink;
  ASSERT_TRUE(
      lint::lint_source(std::string(nfs::find("lb").source), "lb", sink));
  int parent_depth = -1;
  std::vector<std::string> children;
  for (const auto& s : obs::default_tracer().spans()) {
    if (s.name == "lint.run_checks") parent_depth = s.depth;
  }
  ASSERT_GE(parent_depth, 0);
  for (const auto& s : obs::default_tracer().spans()) {
    if (s.depth == parent_depth + 1) children.push_back(s.name);
  }
  EXPECT_EQ(children,
            (std::vector<std::string>{"lint.pdg", "lint.liveness", "lint.sccp",
                                      "lint.sccp_config", "lint.checks"}));
}

// Pins lint's findings on generated programs: the per-code counts and an
// FNV-1a digest of every diagnostic, rendered in report order, for
// fuzz::ProgramGen seeds 1-500. A change to an analysis under the checks
// that moves any finding, its wording or its order shows here.
TEST(LintCorpusTest, GeneratedProgramFindingsArePinned) {
  std::map<std::string, int> counts;
  std::uint64_t digest = 1469598103934665603ULL;
  for (std::uint64_t seed = 1; seed <= 500; ++seed) {
    const auto prog = fuzz::ProgramGen(seed).generate();
    const std::string unit = "gen" + std::to_string(seed);
    DiagnosticSink sink;
    lint::lint_source(prog.source, unit, sink);
    for (const auto& d : sink.diagnostics()) {
      ++counts[d.code];
      for (const char c : d.render(unit) + "\n") {
        digest = (digest ^ static_cast<unsigned char>(c)) * 1099511628211ULL;
      }
    }
  }
  const std::map<std::string, int> expected = {
      {"NF203", 243}, {"NF204", 5},  {"NF205", 156},
      {"NF206", 9},   {"NF208", 17}, {"NF301", 2}};
  EXPECT_EQ(counts, expected);
  EXPECT_EQ(digest, 0x7ffba9bf3929dbf3ULL);
}

}  // namespace
}  // namespace nfactor
