#include "analysis/live_vars.h"

namespace nfactor::analysis {

// live_in = uses + (live_out - strong defs): a strong def kills only its
// own location, so a whole-variable assign leaves its fields live.
LiveVars::LiveVars(const ir::Cfg& cfg) : du_(cfg) {
  const auto transfer = [this](int node, std::uint64_t* row) {
    for (int d = du_.first_def(node); d < du_.last_def(node); ++d) {
      if (du_.def(d).strong) {
        BitRows::reset(row, static_cast<std::size_t>(du_.def(d).loc));
      }
    }
    for (const int u : du_.uses(node)) {
      BitRows::set(row, static_cast<std::size_t>(u));
    }
  };
  flow_ = solve(cfg, Direction::kBackward, Meet::kUnion,
                static_cast<std::size_t>(du_.num_locs()), transfer);
}

bool LiveVars::var_live_out(int node, std::string_view var) const {
  const int v = du_.find_var(var);
  if (v < 0) return false;
  if (live(flow_.in, node, du_.whole_loc(v))) return true;
  for (int f = du_.first_field(v); f >= 0; f = du_.loc(f).next_field) {
    if (live(flow_.in, node, f)) return true;
  }
  return false;
}

}  // namespace nfactor::analysis
