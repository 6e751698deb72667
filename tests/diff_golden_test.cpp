// End-to-end acceptance tests for nf-diff (docs/diffing.md): for each
// corpus NF × fault class, a committed mutant fixture under
// tests/fixtures/diff/ is diffed against its reference and the tool
// must (a) report a non-empty semantic diff, (b) place the true faulty
// line in the top-3 suspects of some delta, (c) find an oracle-validated
// repair that restores model equivalence, and (d) emit `--diff-json`
// output byte-identical to the committed golden — and byte-identical
// across --jobs widths.
//
// The fixtures themselves are reproducible: each is exactly
// `fuzz::mutate(reference, cls, seed)` for the (cls, seed) recorded in
// kCases, and the seed-stability test below re-derives them on every
// run. Regenerate fixtures + goldens after an intentional change with
//   NFACTOR_UPDATE_GOLDEN=1 ctest -R DiffGolden
// and review the diff like any other source change.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <ostream>
#include <sstream>
#include <string>

#include "diff/diff.h"
#include "fuzz/mutate.h"
#include "nfs/corpus.h"

#ifndef NFACTOR_SOURCE_DIR
#error "tests/CMakeLists.txt must define NFACTOR_SOURCE_DIR"
#endif

namespace nfactor {
namespace {

struct DiffCase {
  const char* nf;        ///< bundled corpus NF name (the reference side)
  fuzz::FaultClass cls;  ///< injected fault class
  std::uint64_t seed;    ///< fuzz::mutate seed that produced the fixture
  int faulty_line;       ///< true fault line (must rank in top-3 suspects)
};

// One fixture per corpus NF × fault class. Seeds were chosen as the
// first whose mutant yields a non-empty diff; the localization and
// repair requirements are then *asserted*, not assumed, below.
constexpr DiffCase kCases[] = {
    {"nat", fuzz::FaultClass::kWrongConstant, 1, 22},
    {"nat", fuzz::FaultClass::kInvertedGuard, 2, 31},
    {"nat", fuzz::FaultClass::kMissingStateUpdate, 1, 21},
    {"firewall", fuzz::FaultClass::kWrongConstant, 1, 16},
    {"firewall", fuzz::FaultClass::kInvertedGuard, 1, 22},
    {"firewall", fuzz::FaultClass::kMissingStateUpdate, 5, 16},
    {"heavy_hitter", fuzz::FaultClass::kWrongConstant, 1, 17},
    {"heavy_hitter", fuzz::FaultClass::kInvertedGuard, 1, 21},
    {"heavy_hitter", fuzz::FaultClass::kMissingStateUpdate, 2, 20},
};

std::string class_slug(fuzz::FaultClass cls) {
  switch (cls) {
    case fuzz::FaultClass::kWrongConstant: return "wrong_constant";
    case fuzz::FaultClass::kInvertedGuard: return "inverted_guard";
    case fuzz::FaultClass::kMissingStateUpdate: return "missing_state_update";
  }
  return "unknown";
}

// gtest lists a parameter next to each test name, and ctest's test names
// keep that text; the default byte dump would embed the address of `nf`,
// which moves with every run of the binary.
void PrintTo(const DiffCase& c, std::ostream* os) {
  *os << c.nf << "/" << class_slug(c.cls) << " seed " << c.seed << " line "
      << c.faulty_line;
}

std::string fixture_path(const DiffCase& c) {
  return std::string(NFACTOR_SOURCE_DIR) + "/tests/fixtures/diff/" + c.nf +
         "_" + class_slug(c.cls) + ".nf";
}

std::string golden_path(const DiffCase& c) {
  return std::string(NFACTOR_SOURCE_DIR) + "/tests/golden/diff/" + c.nf + "_" +
         class_slug(c.cls) + ".json";
}

std::string read_file(const std::string& path, bool* ok = nullptr) {
  std::ifstream in(path);
  if (ok) *ok = static_cast<bool>(in);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

bool update_mode() {
  return std::getenv("NFACTOR_UPDATE_GOLDEN") != nullptr;
}

/// The exact diff the golden captures: reference vs fixture, with
/// localization and repair on (nf-diff <ref> <fix> --repair parity).
diff::DiffResult run_case(const DiffCase& c, const std::string& mutant,
                          int jobs = 0) {
  const std::string ref(nfs::find(c.nf).source);
  diff::DiffOptions opts;
  opts.repair = true;
  if (jobs > 0) opts.pipeline.jobs = jobs;
  return diff::diff_sources(ref, c.nf, mutant, std::string(c.nf) + "_mut",
                            opts);
}

class DiffGolden : public ::testing::TestWithParam<DiffCase> {};

TEST_P(DiffGolden, FixtureIsSeedStable) {
  const DiffCase c = GetParam();
  const std::string ref(nfs::find(c.nf).source);
  const auto m = fuzz::mutate(ref, c.cls, c.seed);
  ASSERT_TRUE(m.ok) << "mutate(" << c.nf << ", " << fuzz::to_string(c.cls)
                    << ", " << c.seed << ") found no viable site";
  EXPECT_EQ(m.line, c.faulty_line) << m.description;

  if (update_mode()) {
    std::ofstream out(fixture_path(c));
    ASSERT_TRUE(out) << "cannot write " << fixture_path(c);
    out << m.source;
    return;
  }
  bool ok = false;
  const std::string fixture = read_file(fixture_path(c), &ok);
  ASSERT_TRUE(ok) << "missing fixture " << fixture_path(c)
                  << " (run with NFACTOR_UPDATE_GOLDEN=1 to create)";
  // Byte-identical: the committed fixture is exactly what the public
  // mutate() API reproduces for this (source, class, seed) triple.
  EXPECT_EQ(fixture, m.source);
  // Line-preserving mutation: same line count as the reference.
  EXPECT_EQ(std::count(ref.begin(), ref.end(), '\n'),
            std::count(fixture.begin(), fixture.end(), '\n'));
}

TEST_P(DiffGolden, DiffLocalizeRepairAndGolden) {
  const DiffCase c = GetParam();
  bool ok = false;
  std::string mutant = read_file(fixture_path(c), &ok);
  if (!ok) {
    ASSERT_TRUE(update_mode())
        << "missing fixture " << fixture_path(c)
        << " (run with NFACTOR_UPDATE_GOLDEN=1 to create)";
    mutant = fuzz::mutate(std::string(nfs::find(c.nf).source), c.cls, c.seed)
                 .source;
  }
  const diff::DiffResult r = run_case(c, mutant);

  // (a) the injected fault must surface as a semantic diff.
  ASSERT_FALSE(r.equivalent());
  ASSERT_GT(r.diff.delta_count(), 0u);
  EXPECT_FALSE(r.degraded());

  // (b) the true faulty line ranks in the top-3 suspects of some delta.
  bool in_top3 = false;
  for (const auto& t : r.diff.tables) {
    for (const auto& d : t.deltas) {
      for (const auto& s : d.suspects) {
        if (s.line == c.faulty_line) in_top3 = true;
      }
    }
  }
  EXPECT_TRUE(in_top3) << "line " << c.faulty_line
                       << " not in top-3 suspects:\n"
                       << diff::to_text(r);

  // (c) the repair search restores model equivalence (validated against
  // the differential oracle's packet batch inside repair_search).
  EXPECT_TRUE(r.repair.attempted);
  EXPECT_TRUE(r.repair.repaired) << "no repair found after "
                                 << r.repair.candidates_tried
                                 << " candidates";
  if (r.repair.repaired) {
    const std::string ref(nfs::find(c.nf).source);
    diff::DiffOptions verify_opts;
    const auto again = diff::diff_sources(ref, c.nf, r.repair.patched_source,
                                          "patched", verify_opts);
    EXPECT_TRUE(again.equivalent())
        << "patched source is not equivalent to the reference";
  }

  // (d) the deterministic JSON matches the committed golden.
  const std::string json = diff::to_json(r);
  if (update_mode()) {
    std::ofstream out(golden_path(c));
    ASSERT_TRUE(out) << "cannot write " << golden_path(c);
    out << json;
    return;
  }
  const std::string expected = read_file(golden_path(c), &ok);
  ASSERT_TRUE(ok) << "missing golden " << golden_path(c)
                  << " (run with NFACTOR_UPDATE_GOLDEN=1 to create)";
  EXPECT_EQ(expected, json) << "golden mismatch for " << golden_path(c);
}

std::string case_name(const ::testing::TestParamInfo<DiffCase>& info) {
  return std::string(info.param.nf) + "_" + class_slug(info.param.cls);
}

INSTANTIATE_TEST_SUITE_P(Corpus, DiffGolden, ::testing::ValuesIn(kCases),
                         case_name);

// The nfactor-diff-v1 JSON must be byte-identical across --jobs widths:
// the models' deterministic cores are schedule-independent and the
// differ adds nothing schedule-dependent. (CI re-checks this through
// the nf-diff binary itself.)
TEST(DiffGoldenDeterminism, JsonIdenticalAcrossJobs) {
  const DiffCase c = kCases[0];  // nat / wrong_constant
  bool ok = false;
  const std::string mutant = read_file(fixture_path(c), &ok);
  if (!ok) GTEST_SKIP() << "fixture not yet generated";
  const std::string serial = diff::to_json(run_case(c, mutant, 1));
  const std::string parallel = diff::to_json(run_case(c, mutant, 4));
  EXPECT_EQ(serial, parallel);
}

// Sanity: a self-diff of every bundled NF is reported equivalent with
// zero deltas (exact-signature matching, no solver needed).
TEST(DiffGoldenDeterminism, SelfDiffIsEquivalent) {
  for (const auto& e : nfs::corpus()) {
    const std::string src(e.source);
    const auto r = diff::diff_sources(src, std::string(e.name) + " (old)", src,
                                      std::string(e.name) + " (new)");
    EXPECT_TRUE(r.equivalent()) << e.name;
    EXPECT_EQ(r.diff.solver_queries, 0u) << e.name;
  }
}

}  // namespace
}  // namespace nfactor
