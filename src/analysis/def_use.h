// The def/use table of one CFG: every location a node reads or writes,
// as integer ids. Reaching definitions, the PDG, backward slicing and
// StateAlyzer all work over these ids instead of location strings.
//
// A location is a whole variable ("rr_idx") or a field of one
// ("pkt.ip_src"); each gets a location id mapped to (variable id,
// is-field). Two locations alias when they are the same id, or the same
// variable with exactly one side a field — `locations_alias`
// without the string splits. Definitions are numbered in node order, so
// a node's own defs are one contiguous range, and every variable keeps
// the list of its defs: a kill or a data-dependence lookup scans only the
// defs of the variable it touches.
//
// The table is built from ir::for_each_use/for_each_def, the walkers
// ir::Instr::uses() and defs() are built on, so static slicing, dynamic
// slicing and lint read and write the same locations.
//
// The table keeps views into the CFG's strings; the CFG must outlive it.
#pragma once

#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "ir/ir.h"

namespace nfactor::analysis {

class DefUse {
 public:
  explicit DefUse(const ir::Cfg& cfg);

  struct Loc {
    int var;
    bool field;
    std::string_view field_name;  // empty for a whole variable
    int next_field = -1;          // the variable's next field location
  };
  struct Def {
    int node;
    int loc;
    bool strong;  // killing write: scalar assign, recv, field store
  };

  int num_vars() const { return static_cast<int>(vars_.size()); }
  std::string_view var_name(int v) const {
    return vars_[static_cast<std::size_t>(v)].name;
  }
  /// Variable id of `name`, or -1 when the CFG never reads or writes it.
  int find_var(std::string_view name) const;

  const Loc& loc(int id) const { return locs_[static_cast<std::size_t>(id)]; }
  int var_of(int loc_id) const { return loc(loc_id).var; }
  bool alias(int a, int b) const {
    return a == b || (loc(a).var == loc(b).var && loc(a).field != loc(b).field);
  }

  std::size_t num_defs() const { return defs_.size(); }
  const Def& def(int d) const { return defs_[static_cast<std::size_t>(d)]; }

  /// Def ids of `node`: the half-open range [first, last).
  int first_def(int node) const {
    return def_begin_[static_cast<std::size_t>(node)];
  }
  int last_def(int node) const {
    return def_begin_[static_cast<std::size_t>(node) + 1];
  }
  /// Sorted, distinct location ids `node` reads.
  std::span<const int> uses(int node) const {
    return row(use_begin_, use_locs_, node);
  }
  /// Def ids of variable `v`, in node order.
  std::span<const int> defs_of_var(int v) const {
    return row(var_def_begin_, var_defs_, v);
  }

 private:
  static std::span<const int> row(const std::vector<int>& begin,
                                  const std::vector<int>& items, int i) {
    const auto b = static_cast<std::size_t>(begin[static_cast<std::size_t>(i)]);
    const auto e =
        static_cast<std::size_t>(begin[static_cast<std::size_t>(i) + 1]);
    return {items.data() + b, e - b};
  }

  int var_id(std::string_view name);
  int whole_loc(std::string_view name);
  int field_loc(std::string_view name, std::string_view field);
  int loc_id(std::string_view var, std::string_view field);
  void add_def(int node, int loc, bool strong);

  struct Var {
    std::string_view name;
    int whole_loc = -1;    // -1 until the variable is read or written whole
    int first_field = -1;  // head of its field locations' list
  };
  std::vector<Var> vars_;
  std::unordered_map<std::string_view, int> var_ids_;
  std::vector<Loc> locs_;

  std::vector<Def> defs_;
  std::vector<int> def_begin_;  // per node, plus one end marker

  std::vector<int> use_locs_;   // per-node rows
  std::vector<int> use_begin_;

  std::vector<int> var_defs_;   // per-variable rows of def ids
  std::vector<int> var_def_begin_;
};

}  // namespace nfactor::analysis
