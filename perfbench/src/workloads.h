// The four perfbench workloads. Each is a closed loop with one caller in
// one process: it sets up several times (setup_s is the median), makes one
// untimed warm pass, then runs timed operations until Options::seconds of
// wall time have passed since it started, and checks every output.
//
//   synth_corpus   source text -> tier-2 engine for all 10 corpus NFs
//   verify_fabric  reach / isolate / waypoint over examples/datacenter.topo
//   dp_filter      snort_lite + dpi over 256-packet batches
//   dp_stateful    the eight stateful NFs, tens of thousands of live flows
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "spans.h"
#include "stats.h"

namespace perfbench {

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct Options {
  std::uint64_t seed = 1;
  double seconds = 10.0;  ///< wall-time budget of the workload (common.h)
  int setup_reps = 11;    ///< setups per run; setup_s is their median
  int shards = 1;         ///< ShardedDataplane width (dp_* only)
  /// Traced run: timed rounds alternate spans on / off, so the same run
  /// yields the per-layer split and the tracing overhead.
  bool trace = false;
  std::string root = ".";  ///< checkout root: examples/, tests/golden/
  /// Test hook: corrupt one expected output so the checks must count a
  /// failure (tests/perfbench_test.cpp).
  bool plant_fault = false;
};

struct Report {
  Tally tally;
  double setup_s = 0.0;
  double peak_rss_mb = 0.0;  ///< after set-up and the warm pass (common.h)
  /// Median time of one operation per item, combined across items by
  /// geomean, in the quietest of `blocks` equal blocks of the run
  /// (quietest_block_median in stats.h).
  double op_ms_p50 = 0.0;
  std::size_t blocks = 1;
  std::size_t quietest_block = 0;  ///< index of the block op_ms_p50 is from
  std::size_t samples_per_item = 0;
  /// Over the whole run: the median, and the tail at tail_pct (the
  /// highest of p99/p90/p50 with ten samples beyond it).
  double run_p50 = 0.0;
  double run_tail = 0.0;
  double tail_pct = 50.0;
  /// The end-to-end metrics under this workload's own names
  /// (synth_ms_p50, mpps_geomean, ...), printed for people.
  std::vector<Metric> named;
  std::vector<Metric> layers;  ///< per-layer split
  std::vector<std::string> notes;
};

using Workload = std::function<Report(const Options&, Spans&)>;

Report run_synth_corpus(const Options& opts, Spans& spans);
Report run_verify_fabric(const Options& opts, Spans& spans);
Report run_dp_filter(const Options& opts, Spans& spans);
Report run_dp_stateful(const Options& opts, Spans& spans);

/// Name -> workload, in the order BENCHMARK.json lists them.
const std::vector<std::pair<std::string, Workload>>& workloads();

/// The dp_* output digest per seed: a fresh engine per NF over the first
/// 512 packets of the seed's ring, folded in the workload's NF order.
std::vector<std::uint64_t> dp_prefix_digests(const std::string& workload,
                                             const std::vector<std::uint64_t>& seeds);

/// Where the stored prefix digests live, relative to the checkout root:
/// lines of "<workload> <seed> <hex digest>".
std::string prefix_digest_file();

/// The digest that file stores for (workload, seed); nullopt when it
/// stores none. Throws when the file cannot be read.
std::optional<std::uint64_t> stored_prefix_digest(const std::string& root,
                                                  const std::string& workload,
                                                  std::uint64_t seed);

}  // namespace perfbench
