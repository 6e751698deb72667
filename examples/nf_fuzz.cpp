// nf-fuzz — the differential fuzzing harness as a command line
// (docs/fuzzing.md). Generates random NF programs, judges each one with
// the oracle matrix (simplify off/on × jobs 1/4, runtime-vs-model
// differential + path-partition exclusivity + serial/parallel model
// identity), shrinks every failure to a minimal reproducer, and exits
// nonzero if anything failed — the CI fuzz-smoke gate.
//
//   nf-fuzz [--seed N] [--budget N] [--packets N] [--no-shrink]
//           [--corpus-out DIR] [--verbose] [--metrics-out FILE]
//           [--provenance] [--no-compiled-leg] [--no-sharded-leg]
//   nf-fuzz --replay DIR            (re-judge a committed corpus)
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "cli_common.h"
#include "fuzz/corpus.h"
#include "fuzz/fuzzer.h"
#include "fuzz/oracle.h"
#include "obs/obs.h"

namespace {

int usage() {
  std::fprintf(
      stderr,
      "usage: nf-fuzz [--seed N] [--budget N] [--packets N] [--no-shrink]\n"
      "               [--corpus-out DIR] [--verbose] [--metrics-out FILE]\n"
      "               [--provenance] [--no-compiled-leg] [--no-sharded-leg]\n"
      "       nf-fuzz --replay DIR\n"
      "Generates random NF programs and differentially tests the synthesis\n"
      "pipeline (docs/fuzzing.md). Exits 1 on any divergence, crash, or\n"
      "nondeterminism; shrunk reproducers are printed (and persisted with\n"
      "--corpus-out). --replay re-judges every program in a corpus\n"
      "directory and fails if any entry no longer passes the oracle.\n"
      "--provenance attaches synthesis provenance to divergence reports\n"
      "(implicated model entry + source lines) and records\n"
      "fuzz.provenance.* metrics. Each non-degraded leg also replays the\n"
      "batch through the compiled dataplane engine (src/dataplane/), and\n"
      "the baseline leg is additionally run through ShardedDataplane at 2\n"
      "and 3 shards with every shard checked against a reference engine.\n"
      "--no-compiled-leg / --no-sharded-leg disable those comparisons.\n");
  return 2;
}

bool parse_u64(const std::string& s, std::uint64_t& out) {
  try {
    std::size_t pos = 0;
    out = std::stoull(s, &pos);
    return pos == s.size();
  } catch (const std::exception&) {
    return false;
  }
}

int replay(const std::string& dir, int packets) {
  using namespace nfactor;
  fuzz::CorpusManager corpus(dir);
  std::vector<fuzz::CorpusEntry> entries;
  try {
    entries = corpus.load();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "nf-fuzz: %s\n", e.what());
    return 1;
  }
  fuzz::OracleOptions oopts;
  oopts.packets = packets;
  const fuzz::DifferentialOracle oracle(oopts);
  int failures = 0;
  for (const auto& e : entries) {
    const auto report = oracle.run(e.source);
    const bool bad = report.failed();
    std::printf("%-40s %-12s first-seen %s  -> %s%s\n", e.file.c_str(),
                e.classification.c_str(), e.first_seen.c_str(),
                fuzz::to_string(report.cls).c_str(),
                report.degraded ? " (degraded)" : "");
    if (bad) {
      ++failures;
      std::printf("  leg: %s\n  detail: %s\n", report.leg.c_str(),
                  report.detail.c_str());
    }
  }
  std::printf("replayed %zu corpus entries, %d failing\n", entries.size(),
              failures);
  return failures == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace nfactor;

  fuzz::FuzzOptions opts;
  std::string replay_dir;
  std::string metrics_out;

  std::vector<std::string> args(argv + 1, argv + argc);
  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& a = args[i];
    auto value = [&](std::string& out) {
      if (i + 1 >= args.size()) return false;
      out = args[++i];
      return true;
    };
    std::string v;
    if (a == "--seed") {
      if (!value(v) || !parse_u64(v, opts.seed)) return usage();
    } else if (a == "--budget") {
      std::uint64_t n = 0;
      if (!value(v) || !parse_u64(v, n) || n == 0) return usage();
      opts.budget = static_cast<int>(n);
    } else if (a == "--packets") {
      std::uint64_t n = 0;
      if (!value(v) || !parse_u64(v, n) || n == 0) return usage();
      opts.oracle.packets = static_cast<int>(n);
    } else if (a == "--no-shrink") {
      opts.shrink = false;
    } else if (a == "--provenance") {
      opts.oracle.attach_provenance = true;
    } else if (a == "--no-compiled-leg") {
      opts.oracle.compiled_leg = false;
    } else if (a == "--no-sharded-leg") {
      opts.oracle.sharded_leg = false;
    } else if (a == "--corpus-out") {
      if (!value(opts.corpus_dir)) return usage();
    } else if (a == "--replay") {
      if (!value(replay_dir)) return usage();
    } else if (a == "--verbose") {
      opts.verbose = true;
    } else if (a == "--metrics-out") {
      if (!value(metrics_out)) return usage();
    } else {
      return nfcli::unknown_flag(a, usage);
    }
  }

  int rc = 0;
  if (!replay_dir.empty()) {
    rc = replay(replay_dir, opts.oracle.packets);
  } else {
    fuzz::Fuzzer fuzzer(opts);
    const fuzz::FuzzSummary sum = fuzzer.run();
    std::printf("nf-fuzz: %s\n", sum.to_string().c_str());
    for (const auto& f : sum.findings) {
      std::printf("---- finding: %s (leg %s, structure %s, seed %llx)\n",
                  fuzz::to_string(f.cls).c_str(), f.leg.c_str(),
                  transform::to_string(f.structure).c_str(),
                  static_cast<unsigned long long>(f.seed));
      std::printf("  detail: %s\n", f.detail.c_str());
      if (!f.implicated_summary.empty()) {
        std::printf("  %s\n", f.implicated_summary.c_str());
      }
      if (!f.corpus_file.empty()) {
        std::printf("  persisted: %s\n", f.corpus_file.c_str());
      }
      std::printf("  shrunk reproducer:\n%s", f.shrunk_source.c_str());
    }
    if (!sum.ok()) rc = 1;
  }

  if (!metrics_out.empty()) {
    std::ofstream out(metrics_out);
    if (!out) {
      std::fprintf(stderr, "error: cannot write %s\n", metrics_out.c_str());
      return 1;
    }
    out << obs::default_registry().to_json() << "\n";
  }
  return rc;
}
