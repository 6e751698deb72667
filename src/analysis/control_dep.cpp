#include "analysis/control_dep.h"

#include <algorithm>

namespace nfactor::analysis {

ControlDeps control_dependence(const ir::Cfg& cfg) {
  return control_dependence(cfg, postdominators(cfg));
}

ControlDeps control_dependence(const ir::Cfg& cfg, const DomTree& pdom) {
  ControlDeps out;
  out.deps.assign(cfg.size(), {});

  for (const auto& node : cfg.nodes) {
    const int a = node->id;
    for (const int b : node->succs) {
      if (b < 0) continue;
      // Edge (a, b) where b does not postdominate a: walk the pdom tree
      // from b up to (but excluding) ipdom(a). A successor that
      // postdominates a is a itself or ipdom(a) (a nearer postdominator
      // would have to postdominate b and be postdominated by it), so
      // that test replaces a walk up the whole pdom tree per edge, which
      // made long straight-line bodies quadratic.
      const int stop = pdom.reachable(a)
                           ? pdom.idom[static_cast<std::size_t>(a)]
                           : -1;
      if (stop >= 0 && (b == a || b == stop)) continue;
      int runner = b;
      while (runner != stop && runner >= 0) {
        out.deps[static_cast<std::size_t>(runner)].push_back(a);
        if (!pdom.reachable(runner)) break;
        const int up = pdom.idom[static_cast<std::size_t>(runner)];
        if (up == runner) break;
        runner = up;
      }
    }
  }
  for (auto& row : out.deps) {
    std::sort(row.begin(), row.end());
    row.erase(std::unique(row.begin(), row.end()), row.end());
  }
  return out;
}

}  // namespace nfactor::analysis
