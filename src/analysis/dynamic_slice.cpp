#include "analysis/dynamic_slice.h"

#include <algorithm>
#include <deque>

namespace nfactor::analysis {

std::set<int> dynamic_slice_events(const Trace& trace, const Pdg& pdg,
                                   int criterion_event) {
  std::set<int> events;
  std::deque<int> work;
  events.insert(criterion_event);
  work.push_back(criterion_event);

  while (!work.empty()) {
    const int ev = work.front();
    work.pop_front();
    const TraceEvent& e = trace[static_cast<std::size_t>(ev)];

    // Dynamic data dependences.
    for (const auto& [loc, def_ev] : e.use_defs) {
      (void)loc;
      if (def_ev >= 0 && events.insert(def_ev).second) work.push_back(def_ev);
    }

    // Control: most recent earlier event executing a branch this node is
    // statically control-dependent on.
    const auto& cds = pdg.control_deps(e.node);
    if (!cds.empty()) {
      for (int prior = ev - 1; prior >= 0; --prior) {
        const int pn = trace[static_cast<std::size_t>(prior)].node;
        if (std::binary_search(cds.begin(), cds.end(), pn)) {
          if (events.insert(prior).second) work.push_back(prior);
          break;
        }
      }
    }
  }
  return events;
}

std::set<int> dynamic_slice_nodes(const Trace& trace, const Pdg& pdg,
                                  int criterion_event) {
  std::set<int> nodes;
  for (const int ev : dynamic_slice_events(trace, pdg, criterion_event)) {
    nodes.insert(trace[static_cast<std::size_t>(ev)].node);
  }
  return nodes;
}

}  // namespace nfactor::analysis
