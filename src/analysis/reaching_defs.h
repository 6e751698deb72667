// Reaching definitions over the statement CFG, on the CFG's def/use
// table. Definitions are (node, location) pairs; scalar assignments kill,
// container element stores are weak updates (gen without kill), and
// whole-packet recv kills every field of the packet variable.
#pragma once

#include <set>
#include <vector>

#include "analysis/dataflow.h"
#include "analysis/def_use.h"
#include "ir/ir.h"

namespace nfactor::analysis {

/// May-alias between a defined location and a used location:
/// exact match, or whole-variable vs field of the same variable.
bool locations_alias(const ir::Location& def_loc, const ir::Location& use_loc);

class ReachingDefs {
 public:
  explicit ReachingDefs(const ir::Cfg& cfg);

  const DefUse& def_use() const { return du_; }

  /// Definitions reaching the *entry* of `node` that may supply `use_loc`.
  std::set<int> reaching_def_nodes(int node, const ir::Location& use_loc) const;

  /// Def nodes that may supply any location `node` reads — the node's
  /// data-dependence sources, sorted and distinct.
  std::vector<int> data_deps(int node) const;

 private:
  DefUse du_;
  BitRows in_;  // per node, over def ids
};

}  // namespace nfactor::analysis
