// Integration tests asserting the paper's *claims* hold on this
// reproduction — the Table-2 shape, Figure-6 content, and §5 accuracy —
// plus end-to-end seed-swept differential checks.
#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>
#include <tuple>

#include "model/model.h"
#include "netsim/packet_gen.h"
#include "nfactor/pipeline.h"
#include "nfs/corpus.h"
#include "obs/obs.h"
#include "verify/equivalence.h"

namespace nfactor {
namespace {

pipeline::PipelineResult run_nf(const char* name,
                                bool with_orig_se = false) {
  pipeline::PipelineOptions opts;
  opts.run_orig_se = with_orig_se;
  opts.se_orig.max_paths = 1024;
  return pipeline::run_source(nfs::find(name).source, name, opts);
}

TEST(Table2Shape, SnortSliceIsSmallFractionOfOriginal) {
  const auto r = run_nf("snort_lite", true);
  // Paper: 2678 -> 129 LoC (~5%); ours is a smaller program but the slice
  // must still cut the code by at least half.
  EXPECT_LT(r.loc_slice * 2, r.loc_orig);
  // A single path is smaller than the whole slice.
  EXPECT_LT(r.loc_path, r.loc_slice);
  EXPECT_GT(r.loc_path, 0);
}

TEST(Table2Shape, SnortOriginalPathsExplodeSliceDoesNot) {
  const auto r = run_nf("snort_lite", true);
  // Paper: >1000 EP on the original, 3 on the slice.
  EXPECT_TRUE(r.orig_stats.hit_path_cap);        // ">1000"
  EXPECT_LT(r.slice_paths.size(), 32u);          // small and exact
  EXPECT_GT(r.orig_paths.size(), r.slice_paths.size() * 10);
}

TEST(Table2Shape, SnortSymexFasterOnSlice) {
  const auto r = run_nf("snort_lite", true);
  EXPECT_LT(r.times.se_slice_ms, r.times.se_orig_ms);
}

TEST(Table2Shape, BalanceReductionIsModest) {
  const auto snort = run_nf("snort_lite", true);
  const auto balance = run_nf("balance", true);
  // Paper §5: "the reduction in complexity varies ... snort's logic is
  // more complex and benefits more from NFactor."
  ASSERT_FALSE(balance.orig_stats.hit_path_cap);
  const double balance_ratio =
      static_cast<double>(balance.orig_paths.size()) /
      static_cast<double>(balance.slice_paths.size());
  const double snort_ratio =
      static_cast<double>(snort.orig_paths.size()) /
      static_cast<double>(snort.slice_paths.size());
  EXPECT_GT(snort_ratio, balance_ratio);
  EXPECT_GE(balance.orig_paths.size(), balance.slice_paths.size());
}

TEST(Fig6Shape, BalanceModelHasRrAndHashTables) {
  const auto r = run_nf("balance");
  const auto tables = r.model.tables();
  bool has_rr = false, has_hash = false;
  for (const auto& [key, entries] : tables) {
    (void)entries;
    if (key.find("(vmode == vMODE_RR)") != std::string::npos) has_rr = true;
    if (key.find("(vmode != vMODE_RR)") != std::string::npos) has_hash = true;
  }
  EXPECT_TRUE(has_rr);
  EXPECT_TRUE(has_hash);

  // The RR table's SYN entry advances idx circularly; HASH does not
  // touch idx.
  for (const auto& e : r.model.entries) {
    const std::string cfg = e.config_key();
    if (cfg.find("==") != std::string::npos && !e.is_drop() &&
        !e.state_action.empty()) {
      EXPECT_TRUE(e.state_action.count("idx"));
      EXPECT_NE(symex::to_string(*e.state_action.at("idx")).find("% 2"),
                std::string::npos);
    }
    if (cfg.find("!=") != std::string::npos) {
      EXPECT_FALSE(e.state_action.count("idx"));
    }
  }
}

TEST(Accuracy, PathSetsOfOriginalAndSliceAgreeWhereTractable) {
  for (const char* nf : {"lb", "nat", "firewall", "monitor", "balance",
                         "l2_switch", "dpi", "heavy_hitter", "synflood"}) {
    pipeline::PipelineOptions opts;
    opts.run_orig_se = true;
    opts.se_orig.max_paths = 4096;
    const auto r = pipeline::run_source(nfs::find(nf).source, nf, opts);
    ASSERT_FALSE(r.orig_stats.hit_path_cap) << nf;
    const auto cmp =
        verify::compare_action_sets(r.orig_paths, r.slice_paths, r.cats);
    EXPECT_TRUE(cmp.equal())
        << nf << ": " << cmp.only_in_a.size() << " only-orig, "
        << cmp.only_in_b.size() << " only-slice";
  }
}

struct SeedCase {
  const char* nf;
  std::uint64_t seed;
};

// The NF name is a std::string, not a const char*: gtest prints a
// pointer parameter with its address, and ctest's test names would then
// change with every run of the binary.
class SeededDifferential
    : public ::testing::TestWithParam<std::tuple<std::string, int>> {};

TEST_P(SeededDifferential, ModelMatchesOriginalOn1000Packets) {
  const auto& [nf, seed] = GetParam();
  const auto r = run_nf(nf.c_str());
  netsim::GenConfig cfg;
  cfg.udp_fraction = 0.2;  // exercise non-TCP handling too
  netsim::PacketGen gen(static_cast<std::uint64_t>(seed) * 7919u, cfg);
  auto packets = gen.batch(1000);
  for (int i = 0; i < 10; ++i) {
    const auto flow = gen.handshake_flow(3);
    packets.insert(packets.end(), flow.begin(), flow.end());
  }
  // Spread in_port so port-sensitive NFs see both sides.
  for (std::size_t i = 0; i < packets.size(); ++i) {
    packets[i].in_port = static_cast<int>(i % 2);
  }
  const auto diff =
      verify::differential_test(*r.module, r.cats, r.model, packets);
  EXPECT_EQ(diff.mismatches, 0)
      << (diff.details.empty() ? "" : diff.details[0]);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, SeededDifferential,
    ::testing::Combine(::testing::Values("lb", "balance", "snort_lite", "nat",
                                         "firewall", "monitor", "l2_switch",
                                         "dpi", "heavy_hitter", "synflood"),
                       ::testing::Values(1, 2, 3)));

TEST(ObsSpans, EveryStageEmitsExactlyOneSpanAndTimesMatch) {
  obs::default_tracer().clear();
  const auto r = run_nf("lb", /*with_orig_se=*/true);
  const auto spans = obs::default_tracer().spans();

  auto count_of = [&](const std::string& name) {
    std::size_t n = 0;
    for (const auto& s : spans) n += s.name == name ? 1 : 0;
    return n;
  };
  auto dur_ms = [&](const std::string& name) {
    for (const auto& s : spans) {
      if (s.name == name) return static_cast<double>(s.dur_ns) / 1e6;
    }
    return -1.0;
  };

  // One span per Algorithm-1 stage, plus the enclosing run span.
  for (const char* stage :
       {"pipeline.run", "pipeline.lower", "pipeline.slice",
        "pipeline.se_slice", "pipeline.model", "pipeline.se_orig"}) {
    EXPECT_EQ(count_of(stage), 1u) << stage;
  }

  // StageTimes is a *view* over the spans: identical numbers, not a
  // second measurement.
  EXPECT_DOUBLE_EQ(r.times.lower_ms, dur_ms("pipeline.lower"));
  EXPECT_DOUBLE_EQ(r.times.slicing_ms, dur_ms("pipeline.slice"));
  EXPECT_DOUBLE_EQ(r.times.se_slice_ms, dur_ms("pipeline.se_slice"));
  EXPECT_DOUBLE_EQ(r.times.model_ms, dur_ms("pipeline.model"));
  EXPECT_DOUBLE_EQ(r.times.se_orig_ms, dur_ms("pipeline.se_orig"));
  EXPECT_DOUBLE_EQ(r.times.total_ms, dur_ms("pipeline.run"));

  // Stage spans nest inside the run span.
  for (const auto& s : spans) {
    if (s.name.rfind("pipeline.", 0) == 0 && s.name != "pipeline.run") {
      EXPECT_EQ(s.depth, 1) << s.name;
    }
  }
}

TEST(ObsSpans, SkippedOrigSeEmitsNoSpan) {
  obs::default_tracer().clear();
  const auto r = run_nf("lb", /*with_orig_se=*/false);
  (void)r;
  for (const auto& s : obs::default_tracer().spans()) {
    EXPECT_NE(s.name, "pipeline.se_orig");
  }
}

TEST(PipelineTimings, AllStagesReported) {
  const auto r = run_nf("lb", true);
  EXPECT_GT(r.times.total_ms, 0.0);
  EXPECT_GE(r.times.slicing_ms, 0.0);
  EXPECT_GE(r.times.se_slice_ms, 0.0);
  EXPECT_GE(r.times.se_orig_ms, 0.0);
  EXPECT_GE(r.times.total_ms,
            r.times.slicing_ms);
}

TEST(SyntheticScaling, SlicePathsImmuneToLogBranches) {
  const auto r4 = pipeline::run_source(nfs::synthetic_nf(4, 4), "k4");
  const auto r10 = pipeline::run_source(nfs::synthetic_nf(10, 4), "k10");
  EXPECT_EQ(r4.slice_paths.size(), r10.slice_paths.size());
  EXPECT_GT(r10.loc_orig, r4.loc_orig);
}

TEST(SyntheticScaling, OrigPathsGrowWithLogBranches) {
  pipeline::PipelineOptions opts;
  opts.run_orig_se = true;
  opts.se_orig.max_paths = 4096;
  const auto r2 = pipeline::run_source(nfs::synthetic_nf(2, 2), "k2", opts);
  const auto r6 = pipeline::run_source(nfs::synthetic_nf(6, 2), "k6", opts);
  EXPECT_GT(r6.orig_paths.size(), r2.orig_paths.size() * 4);
}

TEST(SyntheticScaling, SynthNfIsEquivalentToItsModel) {
  const auto r = pipeline::run_source(nfs::synthetic_nf(6, 6), "synth");
  netsim::PacketGen gen(404);
  auto packets = gen.batch(500);
  const auto diff =
      verify::differential_test(*r.module, r.cats, r.model, packets);
  EXPECT_EQ(diff.mismatches, 0)
      << (diff.details.empty() ? "" : diff.details[0]);
}

TEST(CorpusFiles, WriteCorpusEmitsParseableSources) {
  const std::string dir = ::testing::TempDir();
  nfs::write_corpus(dir);
  for (const auto& e : nfs::corpus()) {
    std::ifstream in(dir + "/" + std::string(e.filename));
    ASSERT_TRUE(in.good()) << e.filename;
    std::stringstream ss;
    ss << in.rdbuf();
    EXPECT_EQ(ss.str(), std::string(e.source));
  }
}

}  // namespace
}  // namespace nfactor
