// Shared helpers for the paper-reproduction benchmarks: each bench
// binary prints its paper-shaped table first (the reproduction artifact)
// and then runs google-benchmark timings for the operations behind it.
// After the timing run the obs metrics registry is emitted alongside —
// as JSON to $NFACTOR_METRICS_OUT (or --metrics-out FILE) when set, and
// always as a one-line digest on stderr — so every BENCH_*.json gains
// the per-stage breakdown (solver query histogram, fork/prune counters,
// per-stage wall-time gauges) of the work it measured.
#pragma once

#include <benchmark/benchmark.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>

#include "lang/parser.h"
#include "nfactor/pipeline.h"
#include "nfs/corpus.h"
#include "obs/json.h"
#include "obs/obs.h"

// Build provenance stamped by bench/CMakeLists.txt; fall back gracefully
// when a bench TU is compiled outside that scope.
#ifndef NFACTOR_GIT_SHA
#define NFACTOR_GIT_SHA "unknown"
#endif
#ifndef NFACTOR_BUILD_TYPE
#define NFACTOR_BUILD_TYPE "unknown"
#endif

namespace nfactor::benchutil {

inline pipeline::PipelineResult run_nf(const std::string& name,
                                       const pipeline::PipelineOptions& opts = {}) {
  const auto& e = nfs::find(name);
  return pipeline::run_source(e.source, name, opts);
}

inline void rule(char c = '-') {
  for (int i = 0; i < 78; ++i) std::putchar(c);
  std::putchar('\n');
}

/// Run metadata stamped into every metrics JSON under the "meta" key:
/// git SHA and build type (configure-time), the NFACTOR_OBS switch, and
/// the default SE worker width. check_perf_baseline.py prints this on a
/// gate failure so a regression report always names the build that
/// produced the numbers.
inline std::string meta_json() {
  std::ostringstream os;
  os << "{\"git_sha\":\"" << obs::json_escape(NFACTOR_GIT_SHA)
     << "\",\"build_type\":\"" << obs::json_escape(NFACTOR_BUILD_TYPE)
     << "\",\"obs\":" << (NFACTOR_OBS_ENABLED ? "true" : "false")
     << ",\"jobs\":" << std::thread::hardware_concurrency() << "}";
  return os.str();
}

/// Write the default registry's JSON to `path`, with run metadata
/// spliced in as the leading "meta" key; returns success.
inline bool write_metrics_json(const std::string& path) {
  std::ofstream out(path);
  if (!out) return false;
  std::string doc = obs::default_registry().to_json();
  if (!doc.empty() && doc.front() == '{') {
    doc.insert(1, "\"meta\":" + meta_json() + ",");
  }
  out << doc << "\n";
  return static_cast<bool>(out);
}

/// Peak resident set size of this process in bytes (VmHWM from
/// /proc/self/status), or 0 where procfs is unavailable. The kernel's
/// high-water mark covers the whole run, which is exactly what a memory
/// before/after comparison wants.
inline std::uint64_t peak_rss_bytes() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) != 0) continue;
    std::uint64_t kib = 0;
    if (std::sscanf(line.c_str(), "VmHWM: %llu",
                    reinterpret_cast<unsigned long long*>(&kib)) == 1) {
      return kib * 1024;
    }
  }
  return 0;
}

/// Print the report section, then hand over to google-benchmark.
/// Usage: int main(argc, argv) { print_report(); return bench_main(argc, argv); }
inline int bench_main(int argc, char** argv) {
  // Our own flag, consumed before google-benchmark sees the args.
  std::string metrics_out;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--metrics-out") == 0 && i + 1 < argc) {
      metrics_out = argv[i + 1];
      for (int j = i; j + 2 < argc; ++j) argv[j] = argv[j + 2];
      argc -= 2;
      break;
    }
  }
  if (metrics_out.empty()) {
    if (const char* env = std::getenv("NFACTOR_METRICS_OUT")) {
      metrics_out = env;
    }
  }

  ::benchmark::Initialize(&argc, argv);
  if (::benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  ::benchmark::RunSpecifiedBenchmarks();
  ::benchmark::Shutdown();

  // Memory high-water mark of the whole bench process, so memory wins
  // (e.g. expression interning) show up next to the timings.
  if (const std::uint64_t rss = peak_rss_bytes(); rss > 0) {
    OBS_GAUGE("process.peak_rss_bytes", rss);
  }

  if (!metrics_out.empty() && !write_metrics_json(metrics_out)) {
    std::fprintf(stderr, "bench: cannot write metrics to %s\n",
                 metrics_out.c_str());
    return 1;
  }
  std::fprintf(stderr, "%s\n", obs::default_registry().summary().c_str());
  return 0;
}

}  // namespace nfactor::benchutil
