#include "analysis/def_use.h"

#include <algorithm>

namespace nfactor::analysis {

int DefUse::find_var(std::string_view name) const {
  const auto it = var_ids_.find(name);
  return it == var_ids_.end() ? -1 : it->second;
}

int DefUse::find_loc(std::string_view name) const {
  const auto dot = name.find('.');
  const int v = find_var(name.substr(0, dot));
  if (v < 0) return -1;
  if (dot == std::string_view::npos) return whole_loc(v);
  const std::string_view field = name.substr(dot + 1);
  for (int id = first_field(v); id >= 0; id = loc(id).next_field) {
    if (loc(id).field_name == field) return id;
  }
  return -1;
}

int DefUse::var_id(std::string_view name) {
  if (const int v = find_var(name); v >= 0) return v;
  name = own(name);
  var_ids_.emplace(name, num_vars());
  vars_.push_back({name});
  return num_vars() - 1;
}

int DefUse::intern_whole(std::string_view name) {
  const int v = var_id(name);
  int& id = vars_[static_cast<std::size_t>(v)].whole_loc;
  if (id < 0) {
    id = static_cast<int>(locs_.size());
    locs_.push_back({v, false, {}});
  }
  return id;
}

int DefUse::intern_field(std::string_view name, std::string_view field) {
  const int v = var_id(name);
  int& first = vars_[static_cast<std::size_t>(v)].first_field;
  for (int id = first; id >= 0; id = loc(id).next_field) {
    if (loc(id).field_name == field) return id;
  }
  locs_.push_back({v, true, own(field), first});
  first = static_cast<int>(locs_.size()) - 1;
  return first;
}

int DefUse::loc_id(std::string_view var, std::string_view field) {
  return field.empty() ? intern_whole(var) : intern_field(var, field);
}

// A location written twice by one node is one def, strong if either
// write is (as ir::Instr::is_strong_def answers).
void DefUse::add_def(int node, int loc, bool strong) {
  for (int d = first_def(node); d < static_cast<int>(defs_.size()); ++d) {
    Def& def = defs_[static_cast<std::size_t>(d)];
    if (def.loc == loc) {
      def.strong = def.strong || strong;
      return;
    }
  }
  defs_.push_back({node, loc, strong});
}

// One walk over each node's operands through the IR's def/use walkers.
DefUse::DefUse(const ir::Cfg& cfg) {
  def_begin_.reserve(cfg.size() + 1);
  use_begin_.reserve(cfg.size() + 1);
  var_ids_.reserve(cfg.size());
  vars_.reserve(cfg.size());
  locs_.reserve(cfg.size());
  defs_.reserve(cfg.size());
  use_locs_.reserve(2 * cfg.size());
  for (const auto& n : cfg.nodes) {
    const int id = n->id;
    def_begin_.push_back(static_cast<int>(defs_.size()));
    use_begin_.push_back(static_cast<int>(use_locs_.size()));
    ir::for_each_use(*n, [&](std::string_view var, std::string_view field) {
      use_locs_.push_back(loc_id(var, field));
    });
    ir::for_each_def(
        *n, [&](std::string_view var, std::string_view field, bool strong) {
          add_def(id, loc_id(var, field), strong);
        });
    const auto first = use_locs_.begin() + use_begin_.back();
    std::sort(first, use_locs_.end());
    use_locs_.erase(std::unique(first, use_locs_.end()), use_locs_.end());
  }
  def_begin_.push_back(static_cast<int>(defs_.size()));
  use_begin_.push_back(static_cast<int>(use_locs_.size()));

  // Per-variable def lists (counting sort by variable, node order kept).
  var_def_begin_.assign(static_cast<std::size_t>(num_vars()) + 1, 0);
  for (const Def& d : defs_) {
    ++var_def_begin_[static_cast<std::size_t>(var_of(d.loc)) + 1];
  }
  for (std::size_t v = 0; v < static_cast<std::size_t>(num_vars()); ++v) {
    var_def_begin_[v + 1] += var_def_begin_[v];
  }
  var_defs_.resize(defs_.size());
  std::vector<int> fill(var_def_begin_.begin(), var_def_begin_.end() - 1);
  for (std::size_t d = 0; d < defs_.size(); ++d) {
    const auto v = static_cast<std::size_t>(var_of(defs_[d].loc));
    var_defs_[static_cast<std::size_t>(fill[v]++)] = static_cast<int>(d);
  }
}

}  // namespace nfactor::analysis
