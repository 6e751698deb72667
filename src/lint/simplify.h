// IR simplification ahead of slicing and symbolic execution: fold
// SCCP-constant expressions and prune branch arms whose condition is a
// known constant at fixpoint. Two tiers:
//
//   core         — constants derived from the packet-loop code alone
//                  (persistents opaque). Provably behavior-preserving;
//                  the synthesized model is identical.
//   fold_config  — additionally specializes config scalars (persistent
//                  int/bool/str variables whose initializer is a
//                  compile-time constant and which the packet loop never
//                  updates) to their initial values. The model is
//                  equivalent *for the configured constants* — exactly
//                  what the paper's per-deployment models describe — and
//                  is checked by verify::compare_action_sets_under_config.
//
// The pass is opt-in (PipelineOptions.simplify); nf-synth enables it
// by default with a --no-simplify escape hatch.
#pragma once

#include <string>

#include "analysis/const_prop.h"
#include "ir/ir.h"

namespace nfactor::lint {

struct SimplifyOptions {
  bool enabled = false;
  bool fold_config = false;
};

struct SimplifyStats {
  int branches_pruned = 0;  // branch nodes removed (condition was Const)
  int exprs_folded = 0;     // subexpressions replaced by literals
  int nodes_removed = 0;    // real CFG nodes dropped (pruned arms + branches)

  bool changed() const {
    return branches_pruned > 0 || exprs_folded > 0 || nodes_removed > 0;
  }
  std::string to_string() const {
    return "branches_pruned=" + std::to_string(branches_pruned) +
           " exprs_folded=" + std::to_string(exprs_folded) +
           " nodes_removed=" + std::to_string(nodes_removed);
  }
};

/// The config scalars foldable from their initializers: persistent
/// int/bool/str variables whose value is constant at the end of the init
/// section and which the packet loop never updates. (Shared with
/// verify::config_bindings so simplification and its equivalence check
/// can never disagree about what "the config" is.)
analysis::ConstEnv config_env(const ir::Module& m);

/// Simplify m.body in place (globals and the init CFG are untouched).
/// Bails out with zero stats when pruning would disconnect the CFG exit
/// or the recv anchor (e.g. a config-constant infinite loop).
SimplifyStats simplify_module(ir::Module& m, const SimplifyOptions& opts);

}  // namespace nfactor::lint
