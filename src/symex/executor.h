// KLEE-style symbolic executor over the per-packet CFG. Forks at
// branches whose condition is symbolic, carries per-path constraint sets,
// prunes infeasible paths with the solver, bounds loops, and produces one
// ExecPath record per feasible terminal path — the raw material of
// Algorithm 1's FindExecPaths() and of the model refactoring step.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "ir/ir.h"
#include "statealyzer/statealyzer.h"
#include "symex/expr.h"
#include "symex/solver.h"

namespace nfactor::symex {

/// One send() observed on a path: the packet's symbolic field values at
/// the call, and the output port expression.
struct SendRecord {
  std::map<std::string, SymRef> fields;
  SymRef port;
};

/// One branch decision on a path.
struct BranchRecord {
  int node = -1;
  SymRef cond;   // condition as evaluated (before polarity)
  bool taken = false;
  /// True when both sides were feasible here, i.e. a sibling state was
  /// forked off (provenance: this is a fork site, not a forced branch).
  bool forked = false;

  /// The condition with polarity applied.
  SymRef effective() const { return taken ? cond : negate(cond); }
};

/// Per-path execution profile — the timing half of the provenance record
/// (src/obs/provenance.h). Collected on the executor hot path only when
/// the NFACTOR_OBS kill switch is on; all-zero otherwise. Attribution
/// rule: a scheduled continuation (pop -> finalize) charges its solver
/// checks and wall time to the one path it finalizes, so per-path
/// profiles exactly partition the run's measured totals, and the shared
/// prefix before a fork is charged to the lex-least path through it —
/// a deterministic rule, because the fork tree is schedule-independent.
/// solver_queries is therefore byte-stable across `jobs` widths; the
/// _ns fields are wall-clock and vary run to run (never export them
/// into artifacts that must be byte-stable).
struct PathProfile {
  std::uint64_t solver_queries = 0;  ///< feasibility checks in this segment
  std::uint64_t solver_ns = 0;       ///< wall ns spent inside those checks
  std::uint64_t exec_ns = 0;         ///< wall ns of the finalizing continuation
  /// Solver ns per branch site in this segment: (CFG node id, ns).
  std::vector<std::pair<int, std::uint64_t>> branch_solver_ns;
};

struct ExecPath {
  std::vector<BranchRecord> branches;
  std::vector<SymRef> constraints;  // polarity-applied symbolic conjuncts
  std::vector<SendRecord> sends;
  /// Final symbolic values of persistent variables (state after the
  /// packet), as expressions over initial-state/packet/config symbols.
  std::map<std::string, SymRef> final_state;
  std::set<int> nodes;  // executed CFG nodes
  bool truncated = false;
  /// Canonical branch-decision key: (node, taken ? 0 : 1) pairs,
  /// flattened — the scheduler's lex-least ordering key (see
  /// State::key), surfaced as provenance. Schedule-independent.
  std::vector<int> decision_key;
  /// Per-path profile; zeros when NFACTOR_OBS is compiled out.
  PathProfile profile;

  /// Canonical signature for path-set comparison (§5 accuracy).
  std::string signature() const;
};

struct ExecOptions {
  int max_loop_iters = 8;           // symbolic-branch revisits per path
  std::size_t max_paths = 4096;     // completed-path cap
  std::size_t max_steps_per_path = 50000;
  double timeout_ms = 120000.0;
  const std::set<int>* filter = nullptr;  // run only these nodes (slice SE)

  /// Worker threads exploring pending forks: 0 picks
  /// hardware_concurrency, 1 runs serially on the calling thread. Any
  /// value produces byte-identical paths, models, and path/fork stats
  /// (completed paths are re-sorted into the serial exploration order;
  /// the path cap keeps the same canonical survivor set at every width).
  /// Only cache_hits/cache_misses vary with the schedule.
  int jobs = 0;
  /// Optional shared verdict memo. When null and jobs > 1 a run-local
  /// cache is created so this run's workers still share verdicts; pass
  /// one explicitly to also share across runs (the pipeline reuses one
  /// cache for its slice and original SE passes).
  SolverCache* solver_cache = nullptr;

  /// Multi-packet exploration hooks (see verify/multi_packet.h):
  /// symbol prefix for this packet's header fields ("pkt." by default,
  /// "pkt2." for the second packet of a sequence)...
  std::string pkt_prefix = "pkt.";
  /// ...the persistent-variable environment to start from (defaults to
  /// the fresh symbolic initial state)...
  const std::map<std::string, SymRef>* initial_globals = nullptr;
  /// ...and path constraints inherited from earlier packets.
  const std::vector<SymRef>* initial_pc = nullptr;
};

struct ExecStats {
  std::size_t paths_completed = 0;
  std::size_t paths_truncated = 0;
  std::size_t paths_pruned = 0;  // infeasible branch sides cut by the solver
  std::size_t forks = 0;         // both-sides-feasible branch splits
  std::uint64_t solver_queries = 0;
  /// Of solver_queries: answered from / missed the shared SolverCache.
  /// Zero when no cache is in play. Schedule-dependent (two workers can
  /// race to first-compute the same key), so differential tests must not
  /// compare these across runs.
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  /// Wall ns spent inside solver feasibility checks, summed across all
  /// workers (zero when NFACTOR_OBS is compiled out). Wall-clock, so —
  /// like cache_hits — not comparable across runs or widths. This is the
  /// denominator of provenance solver-time accounting: the sum of
  /// per-path PathProfile::solver_ns differs from it only by states
  /// that never finalized (discarded by the path cap, infeasible, or cut
  /// by stop/timeout).
  std::uint64_t solver_ns = 0;
  std::uint64_t steps = 0;
  std::size_t jobs = 1;  // worker count actually used
  bool hit_path_cap = false;
  bool timed_out = false;
  double wall_ms = 0.0;

  /// One-line rendering for CLIs and logs.
  std::string to_string() const;
};

class SymbolicExecutor {
 public:
  SymbolicExecutor(const ir::Module& m, const statealyzer::Result& cats);

  std::vector<ExecPath> run(const ExecOptions& opts, ExecStats* stats = nullptr);

 private:
  struct State;

  SymRef initial_global_value(const ir::Global& g) const;
  SymRef eval(const lang::Expr& e, State& st) const;
  SymRef eval_call(const lang::Call& c, State& st) const;
  SymRef lookup(const std::string& var, State& st) const;

  const ir::Module& m_;
  const statealyzer::Result& cats_;
};

/// Convert a constant initializer expression to a symbolic constant.
/// Throws std::invalid_argument on non-constant input.
SymRef const_expr_to_sym(const lang::Expr& e);

}  // namespace nfactor::symex
