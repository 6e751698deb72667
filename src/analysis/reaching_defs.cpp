#include "analysis/reaching_defs.h"

#include <algorithm>

namespace nfactor::analysis {

bool locations_alias(const ir::Location& def_loc, const ir::Location& use_loc) {
  if (def_loc == use_loc) return true;
  std::string def_base, use_base;
  const bool def_is_field = ir::split_field_loc(def_loc, &def_base, nullptr);
  const bool use_is_field = ir::split_field_loc(use_loc, &use_base, nullptr);
  if (def_is_field && !use_is_field) return def_base == use_loc;
  if (!def_is_field && use_is_field) return def_loc == use_base;
  return false;
}

ReachingDefs::ReachingDefs(const ir::Cfg& cfg) : du_(cfg) {
  // Kill rows. A strong def of `loc` kills the other defs of `loc` and,
  // when `loc` is a whole variable, the defs of its fields (pkt = recv()
  // kills pkt.ip_src := ...); both are among its variable's defs.
  std::vector<int> kill_begin(cfg.size() + 1, 0);
  std::vector<int> kills;
  for (std::size_t n = 0; n < cfg.size(); ++n) {
    const int node = static_cast<int>(n);
    for (int s = du_.first_def(node); s < du_.last_def(node); ++s) {
      const DefUse::Def& sd = du_.def(s);
      if (!sd.strong) continue;
      const bool whole = !du_.loc(sd.loc).field;
      for (const int d : du_.defs_of_var(du_.var_of(sd.loc))) {
        const DefUse::Def& dd = du_.def(d);
        if (dd.node == node) continue;
        if (dd.loc == sd.loc || (whole && du_.loc(dd.loc).field)) {
          kills.push_back(d);
        }
      }
    }
    kill_begin[n + 1] = static_cast<int>(kills.size());
  }

  // OUT = (IN - kill) + gen, gen being the node's own def range.
  const auto transfer = [&](int node, std::uint64_t* row) {
    const auto n = static_cast<std::size_t>(node);
    for (int k = kill_begin[n]; k < kill_begin[n + 1]; ++k) {
      BitRows::reset(row,
                     static_cast<std::size_t>(kills[static_cast<std::size_t>(k)]));
    }
    for (int d = du_.first_def(node); d < du_.last_def(node); ++d) {
      BitRows::set(row, static_cast<std::size_t>(d));
    }
  };
  in_ = solve(cfg, Direction::kForward, Meet::kUnion, du_.num_defs(), transfer)
            .in;
}

std::set<int> ReachingDefs::reaching_def_nodes(int node,
                                               const ir::Location& use_loc) const {
  std::string base, field;
  const bool is_field = ir::split_field_loc(use_loc, &base, &field);
  const int v = du_.find_var(is_field ? std::string_view(base)
                                      : std::string_view(use_loc));
  std::set<int> out;
  if (v < 0) return out;
  const std::uint64_t* in = in_.row(static_cast<std::size_t>(node));
  for (const int d : du_.defs_of_var(v)) {
    if (!BitRows::test(in, static_cast<std::size_t>(d))) continue;
    // Any def of the variable supplies a whole-variable read; a field
    // read takes whole-variable defs and defs of that field.
    const DefUse::Loc& dl = du_.loc(du_.def(d).loc);
    if (!is_field || !dl.field || dl.field_name == field) {
      out.insert(du_.def(d).node);
    }
  }
  return out;
}

std::vector<int> ReachingDefs::data_deps(int node) const {
  std::vector<int> out;
  const std::uint64_t* in = in_.row(static_cast<std::size_t>(node));
  for (const int u : du_.uses(node)) {
    for (const int d : du_.defs_of_var(du_.var_of(u))) {
      if (BitRows::test(in, static_cast<std::size_t>(d)) &&
          du_.alias(du_.def(d).loc, u)) {
        out.push_back(du_.def(d).node);
      }
    }
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

}  // namespace nfactor::analysis
