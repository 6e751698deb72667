// Coverage sweep over remaining public-API corners: accessors, flags and
// renderings not exercised by the behavioural suites.
#include <gtest/gtest.h>

#include "analysis/dot.h"
#include "diff/matcher.h"
#include "ir/dot.h"
#include "ir/lower.h"
#include "lang/parser.h"
#include "model/fsm.h"
#include "model/sefl_export.h"
#include "model/validate.h"
#include "nfactor/pipeline.h"
#include "nfs/corpus.h"
#include "tests/test_util.h"

namespace nfactor {
namespace {

pipeline::PipelineResult run_nf(const char* name) {
  return pipeline::run_source(nfs::find(name).source, name);
}

TEST(ApiSurface, ModuleFindGlobal) {
  const auto r = run_nf("lb");
  ASSERT_NE(r.module->find_global("mode"), nullptr);
  EXPECT_EQ(r.module->find_global("mode")->type, lang::Type::kInt);
  EXPECT_EQ(r.module->find_global("no_such"), nullptr);
}

TEST(ApiSurface, SourceLinesOfSubsets) {
  const auto r = run_nf("nat");
  const auto& body = r.module->body;
  EXPECT_EQ(body.source_lines({}), 0);
  EXPECT_EQ(body.source_lines({body.entry}), 0);  // entry has no source line
  const auto nodes = body.real_nodes();
  const std::set<int> all(nodes.begin(), nodes.end());
  EXPECT_EQ(body.source_lines(all), body.source_lines());
}

TEST(ApiSurface, CorpusLookupThrowsOnUnknown) {
  EXPECT_THROW(nfs::find("not_an_nf"), std::out_of_range);
  EXPECT_EQ(nfs::corpus().size(), 10u);
  for (const auto& e : nfs::corpus()) {
    EXPECT_FALSE(e.source.empty());
    EXPECT_TRUE(std::string(e.filename).ends_with(".nf"));
  }
}

TEST(ApiSurface, PipelineWithoutNormalizationRejectsCallbacks) {
  // pipeline::run always normalizes; lowering the parsed program directly
  // shows what normalization is for.
  EXPECT_THROW(ir::lower(lang::parse(nfs::find("lb").source, "lb-raw")),
               ir::LowerError);
  // Canonical programs lower either way.
  EXPECT_NO_THROW(ir::lower(lang::parse(nfs::find("nat").source, "nat-raw")));
}

TEST(ApiSurface, CfgDotWithoutHighlightHasNoFill) {
  const auto r = run_nf("nat");
  const std::string dot = ir::to_dot(r.module->body, "plain");
  EXPECT_EQ(dot.find("fillcolor"), std::string::npos);
}

TEST(ApiSurface, FsmIncludeUnrelatedAddsSelfLoops) {
  const auto r = run_nf("firewall");
  const auto lean = model::extract_fsm(r.model, "conns");
  const auto full = model::extract_fsm(r.model, "conns",
                                       /*include_unrelated=*/true);
  EXPECT_GE(full.transitions.size(), lean.transitions.size());
  EXPECT_EQ(full.transitions.size(), r.model.entries.size());
}

TEST(ApiSurface, SeflMarksTruncatedEntries) {
  const auto r = pipeline::run_source(testutil::nf_body(
      "i = 0;\nwhile (i < pkt.dport) {\n  i = i + 1;\n}\nsend(pkt, i);"),
      "looping");
  bool any_trunc = false;
  for (const auto& e : r.model.entries) any_trunc |= e.truncated;
  ASSERT_TRUE(any_trunc);
  EXPECT_NE(model::to_sefl(r.model).find("(truncated)"), std::string::npos);
}

TEST(ApiSurface, SignatureStableAcrossReparse) {
  const auto a = run_nf("firewall");
  const auto b = run_nf("firewall");
  ASSERT_EQ(a.slice_paths.size(), b.slice_paths.size());
  std::multiset<std::string> sa, sb;
  for (const auto& p : a.slice_paths) sa.insert(p.signature());
  for (const auto& p : b.slice_paths) sb.insert(p.signature());
  EXPECT_EQ(sa, sb);
}

TEST(ApiSurface, EntrySignatureDistinguishesActions) {
  // No two entries are interchangeable: the differ matches no entry of
  // the model against any other as an equivalent rule.
  const auto r = run_nf("nat");
  const auto& entries = r.model.entries;
  for (std::size_t i = 0; i < entries.size(); ++i) {
    for (std::size_t j = i + 1; j < entries.size(); ++j) {
      model::Model a, b;
      a.entries = {entries[i]};
      b.entries = {entries[j]};
      EXPECT_EQ(diff::match_models(a, b).equivalent_pairs, 0u)
          << "entries " << i << " and " << j;
    }
  }
}

TEST(ApiSurface, StatsTableStable) {
  const auto r = run_nf("lb");
  const std::string t1 = r.cats.to_table();
  const std::string t2 = r.cats.to_table();
  EXPECT_EQ(t1, t2);
}

TEST(ApiSurface, SyntheticGeneratorScalesStructurally) {
  const std::string small = nfs::synthetic_nf(1, 1);
  const std::string big = nfs::synthetic_nf(20, 20);
  EXPECT_LT(small.size(), big.size());
  // Both parse and lower.
  EXPECT_NO_THROW(pipeline::run_source(small, "small"));
  EXPECT_NO_THROW(pipeline::run_source(big, "big"));
}

TEST(ApiSurface, ModelTablesPartitionEntries) {
  for (const char* nf : {"lb", "balance", "snort_lite"}) {
    const auto r = run_nf(nf);
    std::size_t total = 0;
    for (const auto& [key, entries] : r.model.tables()) {
      (void)key;
      total += entries.size();
    }
    EXPECT_EQ(total, r.model.entries.size()) << nf;
  }
}

TEST(ApiSurface, ExecStatsAccounting) {
  const auto r = run_nf("snort_lite");
  EXPECT_GT(r.slice_stats.steps, 0u);
  EXPECT_GT(r.slice_stats.solver_queries, 0u);
  EXPECT_EQ(r.slice_stats.paths_completed + r.slice_stats.paths_truncated,
            r.slice_paths.size());
  EXPECT_FALSE(r.slice_stats.timed_out);
  EXPECT_FALSE(r.slice_stats.hit_path_cap);
}

}  // namespace
}  // namespace nfactor
