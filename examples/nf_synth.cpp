// nf-synth — the NFactor tool as a command line, the way a vendor
// would run it over their NF source (§1: "make our tool available to NF
// vendors who can run it on their proprietary code and provide only the
// resultant models to network operators").
//
//   nf-synth <file.nf> [--table|--json|--text|--slices|--vars|--stats]
//   nf-synth --corpus <name> [...same flags]
//   nf-synth --write-corpus <dir>
//
// Observability (docs/observability.md; may appear anywhere in argv):
//   --trace-out FILE       write the Chrome trace_event JSON of the run
//   --metrics-out FILE     write the metrics registry JSON
//   --obs-summary          print the one-line metrics digest to stderr
//   --provenance-out FILE  write per-rule provenance JSON (deterministic:
//                          byte-identical at any --jobs width)
//   --folded-out FILE      write the collapsed-stack "path flamegraph"
//   --explain [RULE|L<n>]  rule <-> source cross-reference with per-rule
//                          solver-time attribution (an output mode)
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/dot.h"
#include "cli_common.h"
#include "ir/dot.h"
#include "lang/diagnostics.h"
#include "lint/lint.h"
#include "dataplane/engine.h"
#include "dataplane/threaded.h"
#include "model/fsm.h"
#include "model/model.h"
#include "model/sefl_export.h"
#include "model/validate.h"
#include "nfactor/pipeline.h"
#include "nfs/corpus.h"
#include "obs/obs.h"
#include "symex/intern.h"

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: nf-synth <file.nf> [--table|--json|--text|--compile|"
               "--slices|--vars|--stats|--validate|--sefl|--fsm <statevar>|"
               "--dot-cfg|--dot-pdg|--lint|--lint-json|"
               "--explain [RULE|L<line>]]\n"
               "       nf-synth --corpus <name> [flags]   (bundled NFs: ");
  for (const auto& e : nfactor::nfs::corpus()) {
    std::fprintf(stderr, "%s ", std::string(e.name).c_str());
  }
  std::fprintf(stderr,
               ")\n       nf-synth --all              (summary over the "
               "bundled corpus)\n"
               "       nf-synth --write-corpus <dir>\n"
               "observability flags (any position): --trace-out FILE, "
               "--metrics-out FILE, --obs-summary,\n"
               "  --provenance-out FILE (per-rule provenance JSON, "
               "deterministic), --folded-out FILE\n"
               "  (collapsed-stack path flamegraph for standard renderers)\n"
               "execution flags (any position): --jobs N (symbolic-execution "
               "worker threads;\n"
               "  0 = one per core, 1 = serial; the model is byte-identical "
               "at any width)\n"
               "lint/simplify flags (any position): --lint (diagnostics, "
               "exit 2 on errors), --lint-json,\n"
               "  --Werror (warnings become errors), --no-simplify (skip "
               "IR simplification before SE)\n");
  return 2;
}

struct ObsFlags {
  std::string trace_out;
  std::string metrics_out;
  bool summary = false;

  /// Write the requested exports. Call once, after all pipeline work.
  /// Returns false (with a message) when a file cannot be written.
  bool emit() const {
    if (!trace_out.empty()) {
      std::ofstream out(trace_out);
      if (!out) {
        std::fprintf(stderr, "error: cannot write %s\n", trace_out.c_str());
        return false;
      }
      out << nfactor::obs::default_tracer().to_chrome_json() << "\n";
    }
    if (!metrics_out.empty()) {
      std::ofstream out(metrics_out);
      if (!out) {
        std::fprintf(stderr, "error: cannot write %s\n", metrics_out.c_str());
        return false;
      }
      out << nfactor::obs::default_registry().to_json() << "\n";
    }
    if (summary) {
      std::fprintf(stderr, "%s\n",
                   nfactor::obs::default_registry().summary().c_str());
    }
    return true;
  }
};

/// Remove --trace-out/--metrics-out/--obs-summary (anywhere in args);
/// returns false on a flag missing its value.
bool extract_obs_flags(std::vector<std::string>& args, ObsFlags& obs) {
  for (auto it = args.begin(); it != args.end();) {
    if (*it == "--trace-out" || *it == "--metrics-out") {
      const bool is_trace = *it == "--trace-out";
      it = args.erase(it);
      if (it == args.end()) return false;
      (is_trace ? obs.trace_out : obs.metrics_out) = *it;
      it = args.erase(it);
    } else if (*it == "--obs-summary") {
      obs.summary = true;
      it = args.erase(it);
    } else {
      ++it;
    }
  }
  return true;
}

/// Remove `--jobs N` (anywhere in args). Returns false on a missing or
/// non-numeric value; leaves `jobs` untouched when the flag is absent.
bool extract_jobs_flag(std::vector<std::string>& args, int& jobs) {
  for (auto it = args.begin(); it != args.end();) {
    if (*it != "--jobs") {
      ++it;
      continue;
    }
    it = args.erase(it);
    if (it == args.end()) return false;
    try {
      std::size_t pos = 0;
      jobs = std::stoi(*it, &pos);
      if (pos != it->size() || jobs < 0) return false;
    } catch (const std::exception&) {
      return false;
    }
    it = args.erase(it);
  }
  return true;
}

/// Remove `FLAG VALUE` (anywhere in args). Returns false on a flag
/// missing its value; leaves `value` untouched when the flag is absent.
bool extract_value_flag(std::vector<std::string>& args, const std::string& flag,
                        std::string& value) {
  for (auto it = args.begin(); it != args.end();) {
    if (*it != flag) {
      ++it;
      continue;
    }
    it = args.erase(it);
    if (it == args.end()) return false;
    value = *it;
    it = args.erase(it);
  }
  return true;
}

/// Remove a boolean flag (anywhere in args); returns whether it was seen.
bool extract_flag(std::vector<std::string>& args, const std::string& flag) {
  bool seen = false;
  for (auto it = args.begin(); it != args.end();) {
    if (*it == flag) {
      seen = true;
      it = args.erase(it);
    } else {
      ++it;
    }
  }
  return seen;
}

/// The CLI runs the full production pipeline: simplify on (with config
/// folding) unless --no-simplify asks for the raw IR. Every synthesis
/// mode, --all included, starts from these options.
nfactor::pipeline::PipelineOptions cli_options(int jobs, bool no_simplify) {
  nfactor::pipeline::PipelineOptions opts;
  opts.jobs = jobs;
  opts.simplify.enabled = !no_simplify;
  opts.simplify.fold_config = !no_simplify;
  return opts;
}

/// With more than one SE worker, which worker first builds an expression
/// or first asks the solver about a condition decides whether a later
/// request counts as a hit, so solver-cache hits and the interner's node,
/// hit and byte tallies follow the thread schedule. --stats prints them
/// only for a serial run, so that its output repeats run to run.
void print_se_stats(const char* label, nfactor::symex::ExecStats s,
                    bool serial) {
  const bool cached = s.cache_hits + s.cache_misses > 0;
  if (!serial) s.cache_hits = s.cache_misses = 0;
  std::printf("%s: %s%s\n", label, s.to_string().c_str(),
              !serial && cached ? " cache=omitted" : "");
}

/// --lint / --lint-json: run the diagnostics engine instead of the
/// synthesis pipeline. Exit code 2 when errors (or, under --Werror,
/// warnings) were reported.
int run_lint(const std::string& source, const std::string& unit, bool json,
             bool werror) {
  nfactor::lang::DiagnosticSink sink;
  nfactor::lint::lint_source(source, unit, sink);
  if (json) {
    std::printf("%s\n", sink.render_json(unit).c_str());
  } else {
    std::fputs(sink.render_text(unit).c_str(), stdout);
    std::printf("%s: %d error(s), %d warning(s), %d note(s)\n", unit.c_str(),
                sink.errors(), sink.warnings(), sink.notes());
  }
  const bool fail = sink.has_errors() || (werror && sink.warnings() > 0);
  return fail ? 2 : 0;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace nfactor;

  std::vector<std::string> args(argv + 1, argv + argc);
  ObsFlags obs;
  if (!extract_obs_flags(args, obs)) return usage();
  int jobs = 0;  // 0 = leave ExecOptions defaults in charge
  if (!extract_jobs_flag(args, jobs)) return usage();
  std::string provenance_out;
  std::string folded_out;
  if (!extract_value_flag(args, "--provenance-out", provenance_out)) {
    return usage();
  }
  if (!extract_value_flag(args, "--folded-out", folded_out)) return usage();
  const bool no_simplify = extract_flag(args, "--no-simplify");
  const bool werror = extract_flag(args, "--Werror");
  if (args.empty()) return usage();

  std::string source;
  std::string unit;
  std::size_t flag_start = 1;

  if (args[0] == "--write-corpus") {
    if (args.size() < 2) return usage();
    nfs::write_corpus(args[1]);
    std::printf("wrote %zu NF programs to %s\n", nfs::corpus().size(),
                args[1].c_str());
    return 0;
  }
  if (args[0] == "--all") {
    // Batch mode: one summary row per bundled NF. A trailing "!" marks a
    // degraded run (path cap / timeout / truncation) — see --stats.
    std::printf("%-12s | %-18s | %5s %5s %5s | %5s | %7s\n", "NF",
                "structure", "LoC", "slice", "path", "paths", "entries");
    for (int i = 0; i < 65; ++i) std::fputc('-', stdout);
    std::fputc('\n', stdout);
    for (const auto& e : nfactor::nfs::corpus()) {
      try {
        const auto r = pipeline::run_source(e.source, std::string(e.name),
                                            cli_options(jobs, no_simplify));
        std::printf("%-12s | %-18s | %5d %5d %5d | %5zu | %7zu%s\n",
                    std::string(e.name).c_str(),
                    std::string(e.structure).c_str(), r.loc_orig, r.loc_slice,
                    r.loc_path, r.slice_paths.size(), r.model.entries.size(),
                    r.degraded() ? " !" : "");
      } catch (const std::exception& ex) {
        std::printf("%-12s | error: %s\n", std::string(e.name).c_str(),
                    ex.what());
      }
    }
    return obs.emit() ? 0 : 1;
  }
  if (args[0] == "--corpus") {
    if (args.size() < 2) return usage();
    try {
      const auto& e = nfs::find(args[1]);
      source = std::string(e.source);
      unit = std::string(e.name);
    } catch (const std::exception& ex) {
      std::fprintf(stderr, "error: %s\n", ex.what());
      return 2;
    }
    flag_start = 2;
  } else {
    if (args[0].rfind("--", 0) == 0) {
      return nfcli::unknown_flag(args[0], usage);
    }
    std::ifstream in(args[0]);
    if (!in) {
      std::fprintf(stderr, "error: cannot open %s\n", args[0].c_str());
      return 2;
    }
    std::ostringstream ss;
    ss << in.rdbuf();
    source = ss.str();
    unit = args[0];
  }

  std::string mode = "--table";
  if (args.size() > flag_start) mode = args[flag_start];
  // Reject trailing arguments no mode consumes (previously silently
  // ignored): only --fsm and --explain take one operand.
  const std::size_t mode_args =
      (mode == "--fsm" || mode == "--explain") ? 1 : 0;
  if (args.size() > flag_start + 1 + mode_args) {
    return nfcli::unknown_flag(args[flag_start + 1 + mode_args], usage);
  }

  if (mode == "--lint" || mode == "--lint-json") {
    const int rc = run_lint(source, unit, mode == "--lint-json", werror);
    return obs.emit() ? rc : 1;
  }

  int rc = 0;
  try {
    auto opts = cli_options(jobs, no_simplify);
    if (mode == "--stats") opts.run_orig_se = true;
    const auto r = pipeline::run_source(source, unit, opts);

    if (mode == "--table") {
      std::printf("%s", model::to_table(r.model).c_str());
    } else if (mode == "--json") {
      std::printf("%s", model::to_json(r.model).c_str());
    } else if (mode == "--text") {
      std::printf("%s", model::to_text(r.model).c_str());
    } else if (mode == "--compile") {
      // Lower through the dataplane compiler with the module's concrete
      // initial store, so config specialization matches what a deployed
      // engine would run (docs/dataplane.md). The dump is deterministic:
      // byte-identical at any --jobs width. The table dump is followed
      // by the threaded code the engine executes (dataplane/threaded.h).
      const auto store = model::initial_store(*r.module);
      dataplane::CompileOptions copts;
      copts.bindings = &store;
      const auto table = dataplane::compile(r.model, copts);
      std::printf("%s%s", table.to_text().c_str(),
                  dataplane::lower_threaded(table).to_text(table).c_str());
    } else if (mode == "--vars") {
      std::printf("%s", r.cats.to_table().c_str());
    } else if (mode == "--slices") {
      std::printf("packet slice: %zu nodes, state slice: %zu nodes, union: "
                  "%zu of %zu statements\n",
                  r.pkt_slice.size(), r.state_slice.size(),
                  r.union_slice.size(), r.module->body.real_nodes().size());
      for (const int id : r.union_slice) {
        const auto& n = r.module->body.node(id);
        if (n.kind == ir::InstrKind::kEntry || n.kind == ir::InstrKind::kExit) {
          continue;
        }
        std::printf("  %s\n", n.to_string().c_str());
      }
    } else if (mode == "--validate") {
      const auto report = model::validate(r.model);
      std::printf("%s\n%s\n", report.ok() ? "model OK" : "model has issues",
                  report.summary().c_str());
      rc = report.ok() ? 0 : 1;
    } else if (mode == "--sefl") {
      std::printf("%s", model::to_sefl(r.model).c_str());
    } else if (mode == "--fsm") {
      if (args.size() <= flag_start + 1) {
        std::fprintf(stderr, "--fsm needs a state variable; oisVars are: ");
        for (const auto& v : r.cats.ois_vars) {
          std::fprintf(stderr, "%s ", v.c_str());
        }
        std::fprintf(stderr, "\n");
        return 2;
      }
      const auto fsm = model::extract_fsm(r.model, args[flag_start + 1]);
      std::printf("%s\n%s", fsm.to_text().c_str(), fsm.to_dot().c_str());
    } else if (mode == "--explain") {
      std::string query;
      if (args.size() > flag_start + 1) query = args[flag_start + 1];
      std::printf("%s", obs::explain(r.provenance, *r.module, query).c_str());
    } else if (mode == "--dot-cfg") {
      std::printf("%s", ir::to_dot(r.module->body, unit, r.union_slice).c_str());
    } else if (mode == "--dot-pdg") {
      std::printf("%s", analysis::to_dot(*r.pdg, unit).c_str());
    } else if (mode == "--stats") {
      std::printf("LoC: orig=%d slice=%d path=%d\n", r.loc_orig, r.loc_slice,
                  r.loc_path);
      std::printf("stages: lower=%.2fms simplify=%.2fms slicing=%.2fms "
                  "se_slice=%.2fms model=%.2fms se_orig=%.2fms total=%.2fms\n",
                  r.times.lower_ms, r.times.simplify_ms, r.times.slicing_ms,
                  r.times.se_slice_ms, r.times.model_ms, r.times.se_orig_ms,
                  r.times.total_ms);
      std::printf("simplify: %s%s\n", r.simplify_stats.to_string().c_str(),
                  no_simplify ? " (disabled by --no-simplify)" : "");
      const bool serial = r.slice_stats.jobs <= 1 && r.orig_stats.jobs <= 1;
      print_se_stats("SE(slice)", r.slice_stats, serial);
      print_se_stats("SE(orig) ", r.orig_stats, serial);
      if (serial) {
        std::printf("intern: %s\n", symex::intern_summary().c_str());
      } else {
        std::printf("intern: omitted: with more than one worker the "
                    "interner and solver-cache tallies follow the thread "
                    "schedule (--jobs 1 prints them)\n");
      }
    } else {
      return nfcli::unknown_flag(mode, usage);
    }

    // Provenance exports work in any output mode: the record is built by
    // the pipeline unconditionally (aggregation is cheap bookkeeping).
    if (!provenance_out.empty()) {
      std::ofstream out(provenance_out);
      if (!out) {
        std::fprintf(stderr, "error: cannot write %s\n", provenance_out.c_str());
        return 1;
      }
      out << obs::to_json(r.provenance);
    }
    if (!folded_out.empty()) {
      std::ofstream out(folded_out);
      if (!out) {
        std::fprintf(stderr, "error: cannot write %s\n", folded_out.c_str());
        return 1;
      }
      out << obs::to_folded(r.provenance);
    }

    // A degraded SE run means the printed model may be incomplete —
    // always say so, whatever the output mode.
    if (r.degraded()) {
      std::fprintf(stderr,
                   "nfactor: warning: symbolic execution degraded "
                   "(slice: %s%s%s / orig: %s%s%s) — model may be missing "
                   "entries\n",
                   r.slice_stats.hit_path_cap ? "path-cap " : "",
                   r.slice_stats.timed_out ? "timeout " : "",
                   r.slice_stats.paths_truncated > 0 ? "truncated" : "-",
                   r.orig_stats.hit_path_cap ? "path-cap " : "",
                   r.orig_stats.timed_out ? "timeout " : "",
                   r.orig_stats.paths_truncated > 0 ? "truncated" : "-");
    }
  } catch (const std::exception& ex) {
    std::fprintf(stderr, "nfactor: %s\n", ex.what());
    return 1;
  }
  if (!obs.emit()) return 1;
  return rc;
}
