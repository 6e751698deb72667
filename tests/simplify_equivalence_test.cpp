// Pre-/post-simplify equivalence over the whole corpus:
//  - the core tier (constant folding + pruning with persistents treated
//    as unknown) must leave the synthesized model byte-identical;
//  - the fold_config tier specializes config scalars, so equivalence is
//    checked by substituting the config bindings into the unsimplified
//    path set (verify::compare_action_sets_under_config) and by random
//    differential testing of the specialized model against the
//    unsimplified module's concrete runtime;
//  - at least one NF must show the SE path-count reduction the pass
//    exists for (EXPERIMENTS.md records the full table).
#include <gtest/gtest.h>

#include <string>

#include "ir/lower.h"
#include "lang/parser.h"
#include "lint/simplify.h"
#include "model/model.h"
#include "netsim/packet_gen.h"
#include "nfactor/pipeline.h"
#include "nfs/corpus.h"
#include "tests/test_util.h"
#include "verify/equivalence.h"

namespace nfactor {
namespace {

pipeline::PipelineResult run(const nfs::CorpusEntry& e, bool enabled,
                             bool fold_config) {
  pipeline::PipelineOptions opts;
  opts.simplify.enabled = enabled;
  opts.simplify.fold_config = fold_config;
  return pipeline::run_source(e.source, std::string(e.name), opts);
}

TEST(SimplifyCoreTest, ModelIdenticalOnEveryCorpusNf) {
  for (const auto& e : nfs::corpus()) {
    SCOPED_TRACE(std::string(e.name));
    const auto base = run(e, /*enabled=*/false, /*fold_config=*/false);
    const auto core = run(e, /*enabled=*/true, /*fold_config=*/false);
    EXPECT_EQ(model::to_json(base.model), model::to_json(core.model));
  }
}

TEST(SimplifyCoreTest, ModelIdenticalOnGeneratedNf) {
  // 1,727 lines: large enough that a location-table or worklist slip
  // in the SCCP shows up, small enough for every build flavor.
  const std::string src = testutil::generated_nf(400);
  pipeline::PipelineOptions opts;
  const auto base = pipeline::run_source(src, "generated", opts);
  opts.simplify.enabled = true;
  const auto core = pipeline::run_source(src, "generated", opts);
  EXPECT_EQ(base.module->body.real_nodes().size(),
            core.module->body.real_nodes().size());
  EXPECT_EQ(model::to_json(base.model), model::to_json(core.model));
  EXPECT_EQ(base.model.entries.size(), 41u);
}

TEST(SimplifyFoldConfigTest, ActionSetsEquivalentUnderConfig) {
  for (const auto& e : nfs::corpus()) {
    SCOPED_TRACE(std::string(e.name));
    const auto full = run(e, /*enabled=*/false, /*fold_config=*/false);
    const auto spec = run(e, /*enabled=*/true, /*fold_config=*/true);

    const auto bindings = verify::config_bindings(*full.module);
    const auto cmp = verify::compare_action_sets_under_config(
        full.slice_paths, spec.slice_paths, full.cats, spec.cats, bindings);
    EXPECT_TRUE(cmp.equal())
        << e.name << ": only_in_full=" << cmp.only_in_a.size()
        << " only_in_specialized=" << cmp.only_in_b.size();

    // The specialized run may merge/prune paths but never invent new
    // behaviors, so its path count is bounded by the full run's.
    EXPECT_LE(spec.slice_paths.size(), full.slice_paths.size()) << e.name;
  }
}

TEST(SimplifyFoldConfigTest, SpecializedModelMatchesRuntime) {
  // The specialized model must agree with the *unsimplified* module's
  // concrete runtime packet-for-packet (§5-style differential testing).
  for (const auto& e : nfs::corpus()) {
    SCOPED_TRACE(std::string(e.name));
    const auto full = run(e, /*enabled=*/false, /*fold_config=*/false);
    const auto spec = run(e, /*enabled=*/true, /*fold_config=*/true);

    netsim::PacketGen gen(1234);
    const auto packets = gen.batch(200);
    const auto diff =
        verify::differential_test(*full.module, full.cats, spec.model, packets);
    EXPECT_TRUE(diff.ok())
        << e.name << ": " << diff.mismatches << " mismatches, e.g. "
        << (diff.details.empty() ? "" : diff.details.front());
  }
}

TEST(SimplifyFoldConfigTest, ReducesSePathsSomewhere) {
  // lb's round-robin guard folds under its config, pruning one slice
  // path (5 -> 4). Pinned to catch regressions in the pruner.
  const auto full = run(nfs::find("lb"), false, false);
  const auto spec = run(nfs::find("lb"), true, true);
  EXPECT_GT(spec.simplify_stats.branches_pruned, 0);
  EXPECT_LT(spec.slice_paths.size(), full.slice_paths.size());
}

TEST(SimplifyPassTest, StatsReportedThroughPipeline) {
  const auto spec = run(nfs::find("lb"), true, true);
  EXPECT_TRUE(spec.simplify_stats.changed());
  EXPECT_FALSE(spec.simplify_stats.to_string().empty());
  const auto base = run(nfs::find("lb"), false, false);
  EXPECT_FALSE(base.simplify_stats.changed());
}

TEST(SimplifyPassTest, IdempotentOnFixture) {
  // Second application of the pass finds nothing left to do.
  const std::string src = testutil::nf_body(R"(threshold = 100;
    if (threshold < 50) {
      pkt.ip_ttl = 1;
    }
    send(pkt, OUT);)",
                                            "var OUT = 7;");
  auto m = ir::lower(lang::parse(src, "<test>"));
  lint::SimplifyOptions opts;
  opts.enabled = true;
  opts.fold_config = true;
  const auto first = lint::simplify_module(m, opts);
  EXPECT_TRUE(first.changed());
  EXPECT_GT(first.branches_pruned, 0);
  const auto second = lint::simplify_module(m, opts);
  EXPECT_FALSE(second.changed())
      << "second pass: " << second.to_string();
}

TEST(SimplifyPassTest, DisabledIsANoOp) {
  const std::string src =
      testutil::nf_body("threshold = 1;\n    send(pkt, threshold);");
  auto m = ir::lower(lang::parse(src, "<test>"));
  const auto before = m.body.real_nodes().size();
  const auto stats = lint::simplify_module(m, lint::SimplifyOptions{});
  EXPECT_FALSE(stats.changed());
  EXPECT_EQ(m.body.real_nodes().size(), before);
}

}  // namespace
}  // namespace nfactor
