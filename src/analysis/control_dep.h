// Control dependence per Ferrante–Ottenstein–Warren: node n is control-
// dependent on branch b when one successor of b always reaches n (n
// postdominates it) and another can bypass n.
#pragma once

#include <vector>

#include "analysis/dominators.h"
#include "ir/ir.h"

namespace nfactor::analysis {

struct ControlDeps {
  /// deps[n] = branch nodes that n is control-dependent on, sorted and
  /// distinct.
  std::vector<std::vector<int>> deps;
};

ControlDeps control_dependence(const ir::Cfg& cfg);
ControlDeps control_dependence(const ir::Cfg& cfg, const DomTree& pdom);

}  // namespace nfactor::analysis
