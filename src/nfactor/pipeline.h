// NFactor end-to-end pipeline (paper §2.4, Algorithm 1):
//   1. normalize the code structure (§3.2) and lower to the per-packet CFG;
//   2. packet-processing slice: backward slices from every send();
//   3. StateAlyzer variable categorization on the packet slice;
//   4. state-transition slice: backward slices from every oisVar update;
//   5. symbolic execution of the union slice -> execution paths;
//   6. refactor each path into a model table entry.
// Also (optionally) runs symbolic execution on the original, unsliced
// program to produce the Table-2 comparison columns.
#pragma once

#include <memory>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "analysis/pdg.h"
#include "ir/ir.h"
#include "lang/ast.h"
#include "lint/simplify.h"
#include "model/model.h"
#include "obs/provenance.h"
#include "statealyzer/statealyzer.h"
#include "symex/executor.h"

namespace nfactor::pipeline {

struct PipelineOptions {
  bool normalize_structure = true;  // apply §3.2 transforms first
  /// Opt-in IR simplification between lowering and slicing (disabled by
  /// default so library behavior is unchanged; nf-synth turns it on
  /// with fold_config and offers --no-simplify).
  lint::SimplifyOptions simplify;
  symex::ExecOptions se_slice;      // symbolic execution on the slice
  symex::ExecOptions se_orig;       // symbolic execution on the original
  bool run_orig_se = false;         // Table 2's "orig" columns
  /// Worker threads for both SE runs: 0 leaves se_slice/se_orig alone
  /// (their own `jobs` fields apply), > 0 overrides both. Any value
  /// yields byte-identical models (see symex::ExecOptions::jobs).
  int jobs = 0;
};

/// Per-stage wall times. A *view* over the pipeline's obs spans: each
/// field is exactly the duration of the correspondingly named span
/// (`pipeline.lower`, `pipeline.slice`, `pipeline.se_slice`,
/// `pipeline.model`, `pipeline.se_orig`, `pipeline.run`) recorded in
/// `obs::default_tracer()` — no separate chrono bookkeeping.
struct StageTimes {
  double lower_ms = 0;
  double simplify_ms = 0;     // 0 unless PipelineOptions.simplify.enabled
  double slicing_ms = 0;      // PDG + packet & state slices (paper: "Slicing Time")
  double se_slice_ms = 0;
  double model_ms = 0;        // path -> model-entry refactoring
  double se_orig_ms = 0;
  double total_ms = 0;
};

struct PipelineResult {
  std::unique_ptr<ir::Module> module;  // stable address: pdg refers into it
  std::unique_ptr<analysis::Pdg> pdg;
  statealyzer::Result cats;

  std::set<int> pkt_slice;
  std::set<int> state_slice;
  std::set<int> union_slice;

  std::vector<symex::ExecPath> slice_paths;
  symex::ExecStats slice_stats;
  std::vector<symex::ExecPath> orig_paths;
  symex::ExecStats orig_stats;

  model::Model model;
  /// Per-rule provenance (source lines, decision keys, solver effort),
  /// built from slice_paths right after the model stage. The
  /// deterministic core is populated in every build; timing fields are
  /// nonzero only when NFACTOR_OBS is compiled in.
  obs::ModelProvenance provenance;
  lint::SimplifyStats simplify_stats;  // all-zero unless simplify ran
  StageTimes times;

  // Table-2 metrics (source-line counts).
  int loc_orig = 0;
  int loc_slice = 0;
  int loc_path = 0;  // largest single execution path within the slice

  /// True when either symbolic-execution run degraded its result: hit
  /// the path cap, timed out, or truncated paths (loop bound / step
  /// budget). A degraded run means the model may be missing entries —
  /// callers should surface this, not silently present a partial model.
  bool degraded() const {
    return se_degraded(slice_stats) || se_degraded(orig_stats);
  }
  static bool se_degraded(const symex::ExecStats& s) {
    return s.hit_path_cap || s.timed_out || s.paths_truncated > 0;
  }
};

PipelineResult run(const lang::Program& prog, const PipelineOptions& opts = {});

/// Parse + run. A lang::FrontendError's what() names `unit_name`, as
/// the lint renderer does.
PipelineResult run_source(std::string_view source, std::string unit_name,
                          const PipelineOptions& opts = {});

}  // namespace nfactor::pipeline
