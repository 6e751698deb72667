// Golden tests for nf-lint output: every bundled corpus NF plus the
// deliberately-buggy fixtures under tests/fixtures/ are linted and the
// rendered text compared against tests/golden/lint/<unit>.txt.
//
// Regenerate after an intentional diagnostics change with
//   NFACTOR_UPDATE_GOLDEN=1 ctest -R LintGolden
// and review the diff like any other source change.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include "lang/diagnostics.h"
#include "lint/lint.h"
#include "nfs/corpus.h"

#ifndef NFACTOR_SOURCE_DIR
#error "tests/CMakeLists.txt must define NFACTOR_SOURCE_DIR"
#endif

namespace nfactor {
namespace {

std::string read_file(const std::string& path, bool* ok = nullptr) {
  std::ifstream in(path);
  if (ok) *ok = static_cast<bool>(in);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

/// Exactly what `nf-synth --lint` prints: the rendered diagnostics
/// followed by the one-line severity summary.
std::string lint_report(const std::string& source, const std::string& unit) {
  lang::DiagnosticSink sink;
  lint::lint_source(source, unit, sink);
  char summary[160];
  std::snprintf(summary, sizeof summary,
                "%s: %d error(s), %d warning(s), %d note(s)\n", unit.c_str(),
                sink.errors(), sink.warnings(), sink.notes());
  return sink.render_text(unit) + summary;
}

void check_golden(const std::string& source, const std::string& unit) {
  const std::string golden_path =
      std::string(NFACTOR_SOURCE_DIR) + "/tests/golden/lint/" + unit + ".txt";
  const std::string actual = lint_report(source, unit);

  if (std::getenv("NFACTOR_UPDATE_GOLDEN") != nullptr) {
    std::ofstream out(golden_path);
    ASSERT_TRUE(out) << "cannot write " << golden_path;
    out << actual;
    return;
  }

  bool ok = false;
  const std::string expected = read_file(golden_path, &ok);
  ASSERT_TRUE(ok) << "missing golden file " << golden_path
                  << " (run with NFACTOR_UPDATE_GOLDEN=1 to create)";
  EXPECT_EQ(actual, expected) << "lint output drifted for " << unit;
}

TEST(LintGoldenTest, Corpus) {
  for (const auto& e : nfs::corpus()) {
    SCOPED_TRACE(std::string(e.name));
    check_golden(std::string(e.source), std::string(e.name));
  }
}

TEST(LintGoldenTest, BuggyFixtures) {
  for (const std::string name :
       {"lint_uninit.nf", "lint_deadstate.nf", "lint_duplicate_arm.nf",
        "lint_dataflow.nf"}) {
    SCOPED_TRACE(name);
    const std::string path =
        std::string(NFACTOR_SOURCE_DIR) + "/tests/fixtures/" + name;
    bool ok = false;
    const std::string source = read_file(path, &ok);
    ASSERT_TRUE(ok) << "missing fixture " << path;
    // Golden files are keyed by the basename (minus .nf handled below),
    // so the report is path-independent.
    check_golden(source, name);
  }
}

/// The fixtures exist to prove every NF2xx fires somewhere: assert the
/// full code coverage explicitly, independent of golden-file contents.
TEST(LintGoldenTest, FixturesCoverEveryDataflowCheck) {
  std::string all;
  for (const std::string name :
       {"lint_uninit.nf", "lint_deadstate.nf", "lint_duplicate_arm.nf"}) {
    const std::string path =
        std::string(NFACTOR_SOURCE_DIR) + "/tests/fixtures/" + name;
    bool ok = false;
    const std::string source = read_file(path, &ok);
    ASSERT_TRUE(ok) << path;
    all += lint_report(source, name);
  }
  for (const std::string code : {"NF201", "NF202", "NF203", "NF204", "NF205",
                                 "NF206", "NF207", "NF208"}) {
    EXPECT_NE(all.find(code), std::string::npos)
        << code << " fires in neither fixture:\n" << all;
  }
}

}  // namespace
}  // namespace nfactor
