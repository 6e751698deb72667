// Model validation (solver-backed consistency) and model diffing through
// the semantic differ (src/diff/).
#include "model/validate.h"

#include <gtest/gtest.h>

#include <set>

#include "diff/diff.h"

#include "nfactor/pipeline.h"
#include "nfs/corpus.h"

namespace nfactor::model {
namespace {

pipeline::PipelineResult run_nf(const char* name) {
  return pipeline::run_source(nfs::find(name).source, name);
}

class ValidateCorpus : public ::testing::TestWithParam<const char*> {};

TEST_P(ValidateCorpus, SynthesizedModelsAreConsistent) {
  const auto r = run_nf(GetParam());
  const auto report = validate(r.model);
  EXPECT_TRUE(report.ok()) << report.summary();
  EXPECT_GT(report.pairs_checked + r.model.entries.size(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Corpus, ValidateCorpus,
                         ::testing::Values("lb", "balance", "snort_lite",
                                           "nat", "firewall", "monitor",
                                           "l2_switch", "dpi",
                                           "heavy_hitter", "synflood"));

TEST(Validate, DetectsDeadEntry) {
  auto r = run_nf("firewall");
  // Sabotage: give one entry contradictory flow conditions.
  auto& e = r.model.entries.front();
  const auto dport =
      symex::make_var("pkt.dport", symex::VarClass::kPkt);
  e.flow_match.push_back(
      symex::make_bin(lang::BinOp::kEq, dport, symex::make_int(1)));
  e.flow_match.push_back(
      symex::make_bin(lang::BinOp::kEq, dport, symex::make_int(2)));
  const auto report = validate(r.model);
  bool dead = false;
  for (const auto& i : report.issues) {
    dead |= i.kind == ValidationIssue::Kind::kUnsatisfiableEntry;
  }
  EXPECT_TRUE(dead) << report.summary();
}

TEST(Validate, DetectsOverlappingEntries) {
  auto r = run_nf("firewall");
  // Duplicate an entry: trivially overlapping.
  r.model.entries.push_back(r.model.entries.front().path_nodes.empty()
                                ? r.model.entries.front()
                                : r.model.entries.front());
  const auto report = validate(r.model);
  bool overlap = false;
  for (const auto& i : report.issues) {
    overlap |= i.kind == ValidationIssue::Kind::kOverlap;
  }
  EXPECT_TRUE(overlap) << report.summary();
}

TEST(Validate, SummaryIsReadable) {
  const auto r = run_nf("nat");
  const auto report = validate(r.model);
  EXPECT_NE(report.summary().find("pairs checked"), std::string::npos);
}

TEST(Diff, IdenticalModelsAreIdentical) {
  const auto a = run_nf("lb");
  const auto b = run_nf("lb");
  const auto d = diff::diff_models(a.model, b.model);
  EXPECT_TRUE(d.equivalent()) << d.delta_count() << " delta(s)";
  EXPECT_EQ(d.equivalent_pairs, a.model.entries.size());
}

std::size_t count_kind(const diff::ModelDiff& d, diff::DeltaKind kind) {
  std::size_t n = 0;
  for (const auto& t : d.tables) {
    for (const auto& delta : t.deltas) n += delta.kind == kind;
  }
  return n;
}

TEST(Diff, ConfigChangeShowsUp) {
  const auto before = run_nf("heavy_hitter");
  // A revised NF version: threshold semantics changed from > to >=.
  std::string src(nfs::find("heavy_hitter").source);
  const auto pos = src.find("nb > THRESH");
  ASSERT_NE(pos, std::string::npos);
  src.replace(pos, 11, "nb >= THRESH");
  const auto after = pipeline::run_source(src, "heavy_hitter_v2");

  const auto d = diff::diff_models(before.model, after.model);
  EXPECT_FALSE(d.equivalent());
  // The edited comparison moves a guard; the pairing phase reports it as
  // a changed rule rather than an unrelated add + remove.
  EXPECT_GT(count_kind(d, diff::DeltaKind::kGuardChanged), 0u);
}

TEST(Diff, UnrelatedNfsShareNothing) {
  const auto a = run_nf("nat");
  const auto b = run_nf("firewall");
  const auto d = diff::diff_models(a.model, b.model);
  EXPECT_EQ(d.equivalent_pairs, 0u);
  // Every entry of both models is reported in some delta (added,
  // removed, or one side of a changed pair).
  std::set<int> old_seen, new_seen;
  for (const auto& t : d.tables) {
    for (const auto& delta : t.deltas) {
      if (delta.old_entry >= 0) old_seen.insert(delta.old_entry);
      if (delta.new_entry >= 0) new_seen.insert(delta.new_entry);
    }
  }
  EXPECT_EQ(old_seen.size(), a.model.entries.size());
  EXPECT_EQ(new_seen.size(), b.model.entries.size());
}

TEST(Diff, SignatureIgnoresEntryOrder) {
  auto a = run_nf("nat");
  auto b = run_nf("nat");
  std::reverse(b.model.entries.begin(), b.model.entries.end());
  EXPECT_TRUE(diff::diff_models(a.model, b.model).equivalent());
}

}  // namespace
}  // namespace nfactor::model
