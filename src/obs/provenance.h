// Synthesis provenance: why does the model say what it says, and where
// did the solver time go? Every ModelEntry is refactored from exactly
// one symbolic-execution path (model::build_model is 1:1 and
// order-preserving), so per-rule provenance is the per-path record —
// branch-decision key, fork sites, executed source lines, solver effort
// (symex::PathProfile) — aggregated against the module's CFG.
//
// Two layers with different stability guarantees:
//  - the *deterministic* core (decision keys, fork sites, source lines,
//    solver query counts) is byte-stable across runs and `--jobs`
//    widths — this is what to_json() exports by default, and what the
//    CI determinism check compares;
//  - the *timing* layer (solver/exec nanoseconds, collected on the SE
//    hot path only when NFACTOR_OBS is compiled in) is wall-clock and
//    varies run to run — it feeds `--explain`'s solver-time attribution
//    and the to_folded() flamegraph export, never the stable JSON.
//
// Aggregation itself (this header's API) is always available, in both
// NFACTOR_OBS configurations: with the kill switch off the timing
// fields are simply zero while lines/keys/fork sites still work.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "ir/ir.h"
#include "model/model.h"
#include "symex/executor.h"

namespace nfactor::obs {

/// Provenance of one model rule (= one execution path).
struct RuleProvenance {
  int entry = -1;        ///< index into Model::entries
  bool truncated = false;

  // -- deterministic core ---------------------------------------------------
  /// Canonical branch-decision key: flattened (CFG node, taken ? 0 : 1)
  /// pairs, lex-least canonical order (symex::ExecPath::decision_key).
  std::vector<int> decision_key;
  /// CFG nodes where symbolic execution forked both sides (sorted,
  /// deduplicated).
  std::vector<int> fork_sites;
  /// Distinct source lines executed by the path (sorted; line 0 —
  /// synthesized statements — excluded).
  std::vector<int> lines;
  /// `lines` collapsed into closed intervals [lo, hi].
  std::vector<std::pair<int, int>> intervals;
  /// Statements of the path with a source line, as (line, CFG node id)
  /// in (line, node) order. explain() renders their text from the
  /// module on demand; not part of the JSON export.
  std::vector<std::pair<int, int>> statements;
  /// Short action label ("drop", "send", "2 sends") for listings.
  std::string action;
  /// Solver feasibility checks charged to this path (schedule-stable,
  /// see symex::PathProfile; zero when NFACTOR_OBS is compiled out).
  std::uint64_t solver_queries = 0;

  // -- timing layer (wall clock; never in the stable export) ----------------
  std::uint64_t solver_ns = 0;  ///< solver wall ns charged to this path
  std::uint64_t exec_ns = 0;    ///< SE wall ns of the finalizing continuation
  /// Solver ns per source line (from per-branch-site measurements),
  /// sorted by line.
  std::vector<std::pair<int, std::uint64_t>> line_solver_ns;
};

/// Provenance of a whole synthesized model.
struct ModelProvenance {
  std::string nf;
  std::vector<RuleProvenance> rules;  ///< parallel to Model::entries

  // Run-level denominators (from the slice-SE ExecStats).
  std::uint64_t total_solver_queries = 0;  ///< all checks the run made
  std::uint64_t total_solver_ns = 0;       ///< measured solver wall ns
  std::uint64_t total_exec_ns = 0;         ///< SE wall ns (stats.wall_ms)

  /// Fraction of the run's measured solver time attributed to surviving
  /// rules (in [0, 1]; 1.0 when the run spent no solver time at all —
  /// nothing was left unaccounted). The gap is states that never
  /// finalized: discarded by the path cap, infeasible, or cut by a
  /// timeout.
  double solver_time_accounted() const;

  /// Rules whose `lines` contain `line`.
  std::vector<int> rules_for_line(int line) const;
};

/// Aggregate per-path provenance against the module and model.
/// `paths` must be the exact path vector `model` was built from
/// (model::build_model is 1:1 and order-preserving; sizes must match).
/// `stats` supplies the run-level denominators; may be null.
ModelProvenance build_model_provenance(const ir::Module& module,
                                       const std::vector<symex::ExecPath>& paths,
                                       const model::Model& model,
                                       const symex::ExecStats* stats = nullptr);

/// JSON export. By default only the deterministic core is emitted —
/// byte-stable across runs and --jobs widths (the schema is documented
/// in docs/observability.md). With include_timing, wall-clock fields
/// (solver_ns / exec_ns / line_solver_ns and ns totals) are added; that
/// variant is NOT byte-stable and exists for ad-hoc inspection.
std::string to_json(const ModelProvenance& p, bool include_timing = false);

/// Collapsed-stack ("folded") export for standard flamegraph renderers:
/// one `frame;frame;... weight` line per sample bucket. Frames are
/// `nf;entry N;L<line>` for SE execution self-time and
/// `nf;entry N;L<line>;solver` for solver time attributed to the branch
/// at that line. Weights are nanoseconds; when the build carries no
/// timing (NFACTOR_OBS=OFF) weights fall back to executed-statement
/// counts so the path structure still renders.
std::string to_folded(const ModelProvenance& p);

/// Human-readable rule <-> source cross-reference (the --explain mode).
/// `query` selects the view: "" lists every rule plus the solver-time
/// accounting line; an integer selects one rule's detail (statements,
/// decision key, per-line solver time); "L<n>" or "line:<n>" lists the
/// rules that executed source line n. `module` must be the module `p`
/// was built from: a rule's statements are rendered from its CFG nodes
/// only when that rule is printed.
std::string explain(const ModelProvenance& p, const ir::Module& module,
                    const std::string& query = "");

}  // namespace nfactor::obs
