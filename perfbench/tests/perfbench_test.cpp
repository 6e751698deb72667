// Tests for the benchmark itself: the percentile rule, the geomean
// roll-up, the set-up repetitions' schedule, fail_rate accounting (a planted wrong expected output must
// count as a failure), span self times, the stored dp_* prefix digests,
// and a tiny-length smoke run of every workload.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <numeric>
#include <thread>

#include "common.h"
#include "spans.h"
#include "stats.h"
#include "workloads.h"

namespace perfbench {
namespace {

std::vector<double> one_to(int n) {
  std::vector<double> v(static_cast<std::size_t>(n));
  std::iota(v.begin(), v.end(), 1.0);
  return v;
}

TEST(Percentile, NearestRank) {
  const auto v = one_to(100);
  EXPECT_EQ(percentile(v, 50), 50);
  EXPECT_EQ(percentile(v, 90), 90);
  EXPECT_EQ(percentile(v, 99), 99);
  EXPECT_EQ(percentile({7.0}, 99), 7.0);
  EXPECT_EQ(percentile({}, 50), 0.0);
  EXPECT_EQ(median({3.0, 1.0, 2.0}), 2.0);
}

TEST(Percentile, TailIsHighestWithTenSamplesBeyond) {
  EXPECT_EQ(samples_beyond(1000, 99), 10u);
  EXPECT_EQ(samples_beyond(100, 90), 10u);
  EXPECT_EQ(tail_percentile(1000), 99);
  EXPECT_EQ(tail_percentile(999), 90);  // p99 would leave 9 beyond
  EXPECT_EQ(tail_percentile(100), 90);
  EXPECT_EQ(tail_percentile(99), 50);
  EXPECT_EQ(tail_percentile(5), 50);
  EXPECT_EQ(tail_percentile(0), 50);
}

TEST(Geomean, RollsUpItemsWithoutLettingOneSwamp) {
  EXPECT_DOUBLE_EQ(geomean({1.0, 100.0}), 10.0);
  EXPECT_DOUBLE_EQ(geomean({4.0}), 4.0);
  EXPECT_NEAR(geomean({0.16, 3.1}), std::sqrt(0.16 * 3.1), 1e-12);
  EXPECT_EQ(geomean({}), 0.0);
  EXPECT_EQ(geomean({1.0, 0.0}), 0.0);
}

TEST(QuietestBlock, BlockCountKeepsFiveSamplesUpToSixty) {
  EXPECT_EQ(block_count(0), 1u);
  EXPECT_EQ(block_count(9), 1u);
  EXPECT_EQ(block_count(10), 2u);
  EXPECT_EQ(block_count(200), 40u);
  EXPECT_EQ(block_count(100000), 60u);
}

TEST(QuietestBlock, SkipsASlowPeriodAndCombinesItemsByGeomean) {
  // Two items sampled side by side for 400 rounds; the first 300 rounds
  // run 1.5x slow, as under a noisy neighbour. The whole-run median is
  // the slow one; the quietest short block reports the quiet speed, give
  // or take where its few samples fall in the items' cycles.
  std::vector<std::vector<double>> items(2);
  for (int r = 0; r < 400; ++r) {
    const double slow = r < 300 ? 1.5 : 1.0;
    items[0].push_back(slow * (1.0 + 0.01 * (r % 7)));
    items[1].push_back(slow * (4.0 + 0.04 * (r % 5)));
  }
  EXPECT_GT(geomean(per_item(items, 50)), 1.4 * 2.0);
  EXPECT_NEAR(quietest_block_median(items), std::sqrt(1.03 * 4.08), 0.05);
  EXPECT_EQ(quietest_block_median({}), 0.0);
}

TEST(SetupReps, FirstAtOnceTheRestAsTheBudgetIsUsed) {
  int calls = 0;
  const auto setup = [&](int) { ++calls; };
  const Budget idle(1e9);  // never used up
  SetupReps early(5, idle, 1.0);
  early.run_due(setup);
  early.run_due(setup);
  EXPECT_EQ(calls, 1);
  const Budget spent(1e-9);
  SetupReps late(5, spent, 0.5);
  late.run_due(setup);
  EXPECT_EQ(calls, 6);
  late.run_due(setup);
  EXPECT_EQ(calls, 6);
}

TEST(Tally, FailRateIsFailedOverAttempted) {
  Tally t;
  EXPECT_EQ(t.fail_rate(), 0.0);
  t.record(true);
  t.record(false);
  t.record(true);
  t.record(true);
  EXPECT_EQ(t.attempted, 4u);
  EXPECT_EQ(t.failed, 1u);
  EXPECT_DOUBLE_EQ(t.fail_rate(), 0.25);
}

TEST(Spans, SelfTimeExcludesChildren) {
  Spans spans(true);
  {
    auto outer = spans.scope("outer");
    {
      auto inner = spans.scope("inner");
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  }
  spans.drain();
  const auto& t = spans.totals();
  ASSERT_EQ(t.count("outer"), 1u);
  ASSERT_EQ(t.count("inner"), 1u);
  EXPECT_GE(t.at("inner").self_ms, 4.0);
  EXPECT_LT(t.at("outer").self_ms, t.at("inner").self_ms);
  EXPECT_GE(t.at("outer").total_ms, t.at("inner").total_ms);
  EXPECT_NE(spans.chrome_json().find("\"name\":\"inner\""), std::string::npos);

  Spans off(false);
  { auto s = off.scope("never"); }
  off.drain();
  EXPECT_TRUE(off.totals().empty());
}

// perfbench/golden/prefix_digests.txt stores seeds 0..kStoredSeeds-1 of
// both dp workloads. NFACTOR_UPDATE_GOLDEN=1 rewrites it from the current
// code; otherwise a sample of seeds is recomputed and compared.
constexpr std::uint64_t kStoredSeeds = 512;

TEST(PrefixDigest, MatchesStoredFile) {
  const std::string root = PERFBENCH_ROOT;
  const std::vector<std::string> dp = {"dp_filter", "dp_stateful"};
  if (std::getenv("NFACTOR_UPDATE_GOLDEN") != nullptr) {
    std::vector<std::uint64_t> seeds(kStoredSeeds);
    std::iota(seeds.begin(), seeds.end(), 0);
    std::ofstream out(root + "/" + prefix_digest_file());
    out << "# dp_* output digests of a fresh engine per NF over the first 512\n"
           "# packets of the seed's ring: workload seed digest. Regenerate with\n"
           "#   NFACTOR_UPDATE_GOLDEN=1 perfbench_test --gtest_filter='PrefixDigest.*'\n";
    char hex[32];
    for (const auto& w : dp) {
      const auto digests = dp_prefix_digests(w, seeds);
      for (std::size_t i = 0; i < seeds.size(); ++i) {
        std::snprintf(hex, sizeof hex, "%016llx",
                      static_cast<unsigned long long>(digests[i]));
        out << w << ' ' << seeds[i] << ' ' << hex << '\n';
      }
    }
  }
  const std::vector<std::uint64_t> sample = {0, 1, 7, 100, kStoredSeeds - 1};
  for (const auto& w : dp) {
    const auto digests = dp_prefix_digests(w, sample);
    for (std::size_t i = 0; i < sample.size(); ++i) {
      const auto stored = stored_prefix_digest(root, w, sample[i]);
      ASSERT_TRUE(stored.has_value()) << w << " seed " << sample[i];
      EXPECT_EQ(*stored, digests[i]) << w << " seed " << sample[i];
    }
    EXPECT_FALSE(stored_prefix_digest(root, w, kStoredSeeds).has_value());
  }
  EXPECT_NE(dp_prefix_digests("dp_filter", {3}), dp_prefix_digests("dp_filter", {4}));
}

Options tiny() {
  Options o;
  o.seed = 7;
  o.seconds = 0.01;
  o.setup_reps = 1;
  o.shards = 2;
  o.root = PERFBENCH_ROOT;
  return o;
}

class WorkloadSmoke : public ::testing::TestWithParam<std::string> {
 protected:
  Report run(const Options& o) {
    for (const auto& [name, fn] : workloads()) {
      if (name == GetParam()) {
        Spans spans(false);
        return fn(o, spans);
      }
    }
    ADD_FAILURE() << "no workload " << GetParam();
    return {};
  }
};

TEST_P(WorkloadSmoke, TinyRunIsCorrect) {
  const Report rep = run(tiny());
  EXPECT_GT(rep.tally.attempted, 0u);
  EXPECT_EQ(rep.tally.failed, 0u);
  EXPECT_GT(rep.setup_s, 0.0);
  EXPECT_GT(rep.peak_rss_mb, 0.0);
  EXPECT_GT(rep.op_ms_p50, 0.0);
  EXPECT_GE(rep.run_tail, rep.run_p50);
  EXPECT_LE(rep.op_ms_p50, rep.run_tail);
  EXPECT_FALSE(rep.named.empty());
  EXPECT_FALSE(rep.layers.empty());
}

TEST_P(WorkloadSmoke, PlantedWrongExpectedOutputCountsAsFailure) {
  Options o = tiny();
  o.plant_fault = true;
  const Report rep = run(o);
  EXPECT_GE(rep.tally.failed, 1u);
  EXPECT_GT(rep.tally.fail_rate(), 0.0);
}

TEST_P(WorkloadSmoke, TracedRunReportsOverhead) {
  Options o = tiny();
  o.trace = true;
  o.seconds = 0.05;
  Spans spans(false);
  Report rep;
  for (const auto& [name, fn] : workloads()) {
    if (name == GetParam()) rep = fn(o, spans);
  }
  EXPECT_EQ(rep.tally.failed, 0u);
  bool overhead = false;
  for (const auto& m : rep.layers) overhead = overhead || m.name == "trace.overhead_pct";
  EXPECT_TRUE(overhead);
  EXPECT_FALSE(spans.totals().empty());
}

INSTANTIATE_TEST_SUITE_P(All, WorkloadSmoke,
                         ::testing::Values("synth_corpus", "verify_fabric",
                                           "dp_filter", "dp_stateful"));

}  // namespace
}  // namespace perfbench
