// perfbench: one benchmark for NFactor's two hot paths (synthesis and the
// compiled dataplane) and the verification application.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--root DIR] [--out-dir DIR] [--git-sha SHA]
//             [--source-digest HEX]
//
// Prints a meta stamp, the workload's metrics by name with their units,
// and as its last line one JSON object: {"correct", "attempted",
// "failed", "metrics"}. Untraced runs report the end-to-end metrics; a
// traced run reports the per-layer split of every workload (the named
// one for half of --seconds, the others sharing the other half), writes
// the spans as a Chrome trace into --out-dir, and prints each span's self
// time.
#include <sched.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <exception>
#include <fstream>
#include <string>
#include <thread>

#include "dataplane/threaded.h"
#include "obs/json.h"
#include "workloads.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {

namespace {

struct Args {
  std::string workload;
  Options opts;
  bool trace = false;
  std::string out_dir = ".";
  std::string git_sha = "unknown";
  std::string source_digest = "unknown";
};

int usage(const char* msg) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload NAME --seed N "
               "--seconds S --trace 0|1 [--root DIR] [--out-dir DIR] "
               "[--git-sha SHA] [--source-digest HEX]\n",
               msg);
  return 2;
}

int nproc() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) == 0) return CPU_COUNT(&set);
  return static_cast<int>(std::thread::hardware_concurrency());
}

bool optimized_build() {
#if defined(__OPTIMIZE__)
  return true;
#else
  return false;
#endif
}

void print_metric(const std::string& workload, const Metric& m) {
  std::printf("%-14s %-34s %16.6f %s\n", workload.c_str(), m.name.c_str(),
              m.value, m.unit.c_str());
}

std::string result_json(const Tally& tally, bool correct,
                        const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(tally.attempted);
  out += ", \"failed\": " + std::to_string(tally.failed);
  out += ", \"metrics\": {";
  char buf[64];
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::snprintf(buf, sizeof buf, "%.17g", metrics[i].value);
    out += (i == 0 ? "\"" : ", \"") + nfactor::obs::json_escape(metrics[i].name) +
           "\": {\"value\": " + buf + ", \"unit\": \"" +
           nfactor::obs::json_escape(metrics[i].unit) + "\"}";
  }
  out += "}}";
  return out;
}

int run(const Args& a) {
  const auto& all = workloads();
  const auto it = std::find_if(all.begin(), all.end(),
                               [&](const auto& w) { return w.first == a.workload; });
  if (it == all.end()) return usage(("unknown workload '" + a.workload + "'").c_str());

  const bool optimized = optimized_build();
  std::printf(
      "perfbench meta: {\"workload\": \"%s\", \"seed\": %llu, \"seconds\": %g, "
      "\"trace\": %s, \"git_sha\": \"%s\", \"source_digest\": \"%s\", "
      "\"build_type\": \"%s\", \"optimized\": %s, \"nfactor_obs\": %s, "
      "\"dispatch\": \"%s\", \"nproc\": %d, \"hardware_concurrency\": %u, "
      "\"shards\": %d}\n",
      a.workload.c_str(), static_cast<unsigned long long>(a.opts.seed), a.opts.seconds,
      a.trace ? "true" : "false", a.git_sha.c_str(), a.source_digest.c_str(),
      PERFBENCH_BUILD_TYPE, optimized ? "true" : "false",
      NFACTOR_OBS_ENABLED ? "true" : "false",
      nfactor::dataplane::threaded_dispatch_is_computed_goto() ? "computed_goto"
                                                                : "switch",
      nproc(), std::thread::hardware_concurrency(), a.opts.shards);
  if (!optimized) {
    const char* warn =
        "perfbench: WARNING: NOT AN OPTIMIZED BUILD -- these timings do not "
        "describe NFactor's performance\n";
    std::fputs(warn, stdout);
    std::fputs(warn, stderr);
  }
  std::fflush(stdout);

  std::vector<Metric> metrics;
  Tally tally;
  bool correct = true;
  const auto absorb = [&](const std::string& name, const Report& rep) {
    tally.attempted += rep.tally.attempted;
    tally.failed += rep.tally.failed;
    for (const auto& note : rep.notes) std::printf("%-14s # %s\n", name.c_str(), note.c_str());
    std::printf("%-14s # %zu samples per item; p50 %.6g ms in the quietest of %zu "
                "blocks (block %zu); whole run p50 %.6g ms, p%d %.6g ms\n",
                name.c_str(), rep.samples_per_item, rep.op_ms_p50, rep.blocks,
                rep.quietest_block, rep.run_p50, static_cast<int>(rep.tail_pct),
                rep.run_tail);
    std::printf("%-14s # fail_rate %.6g (%llu failed / %llu attempted)\n", name.c_str(),
                rep.tally.fail_rate(), static_cast<unsigned long long>(rep.tally.failed),
                static_cast<unsigned long long>(rep.tally.attempted));
  };

  if (!a.trace) {
    Spans spans(false);
    const Report rep = it->second(a.opts, spans);
    absorb(a.workload, rep);
    for (const auto& m : rep.named) print_metric(a.workload, m);
    print_metric(a.workload, {"fail_rate", rep.tally.fail_rate(), "ratio"});
    metrics = {{"setup_s", rep.setup_s, "s"},
               {"op_ms_p50", rep.op_ms_p50, "ms"},
               {"peak_rss_mb", rep.peak_rss_mb, "MiB"}};
  } else {
    Spans spans(false);
    // The named workload first, with half the time: its overhead figure
    // is the one reported. The others share the other half and
    // contribute their layers.
    std::vector<std::pair<std::string, Workload>> order = {*it};
    for (const auto& w : all) {
      if (w.first != a.workload) order.push_back(w);
    }
    for (std::size_t k = 0; k < order.size(); ++k) {
      Options o = a.opts;
      o.trace = true;
      o.seconds = a.opts.seconds / 2.0;
      if (k > 0) {
        o.seconds /= static_cast<double>(order.size() - 1);
        o.setup_reps = 1;
      }
      Report rep = order[k].second(o, spans);
      absorb(order[k].first, rep);
      for (const auto& m : rep.named) print_metric(order[k].first, m);
      for (const auto& m : rep.layers) {
        if (k > 0 && m.name == "trace.overhead_pct") continue;
        metrics.push_back(m);
      }
    }
    std::printf("%-14s # span self times (first set-up and traced rounds)\n",
                a.workload.c_str());
    for (const auto& [name, t] : spans.totals()) {
      std::printf("%-14s   %-40s n=%-9llu total %12.3f ms  self %12.3f ms\n",
                  a.workload.c_str(), name.c_str(),
                  static_cast<unsigned long long>(t.count), t.total_ms, t.self_ms);
    }
    const std::string path = a.out_dir + "/perfbench_" + a.workload + "_seed" +
                             std::to_string(a.opts.seed) + ".trace.json";
    std::ofstream out(path);
    out << spans.chrome_json();
    std::printf("%-14s # chrome trace: %s\n", a.workload.c_str(), path.c_str());
    std::sort(metrics.begin(), metrics.end(),
              [](const Metric& x, const Metric& y) { return x.name < y.name; });
  }

  for (const auto& m : metrics) {
    print_metric(a.workload, m);
    correct = correct && std::isfinite(m.value);
  }
  correct = correct && tally.failed == 0 && tally.attempted > 0;
  std::printf("%s\n", result_json(tally, correct, metrics).c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using perfbench::usage;
  perfbench::Args a;
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) return usage(("missing value for " + key).c_str());
    const std::string val = argv[++i];
    try {
      if (key == "--workload") {
        a.workload = val;
      } else if (key == "--seed") {
        a.opts.seed = std::stoull(val);
        have_seed = true;
      } else if (key == "--seconds") {
        a.opts.seconds = std::stod(val);
        have_seconds = a.opts.seconds > 0.0;
      } else if (key == "--trace") {
        if (val != "0" && val != "1") return usage("--trace takes 0 or 1");
        a.trace = val == "1";
        have_trace = true;
      } else if (key == "--root") {
        a.opts.root = val;
      } else if (key == "--out-dir") {
        a.out_dir = val;
      } else if (key == "--git-sha") {
        a.git_sha = val;
      } else if (key == "--source-digest") {
        a.source_digest = val;
      } else {
        return usage(("unknown option " + key).c_str());
      }
    } catch (const std::exception&) {
      return usage(("bad value for " + key).c_str());
    }
  }
  if (a.workload.empty() || !have_seed || !have_seconds || !have_trace) {
    return usage("--workload, --seed, --seconds (> 0) and --trace are required");
  }
  a.opts.shards = std::min(4, perfbench::nproc());
  try {
    return perfbench::run(a);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
