// Backward live-location analysis over the CFG's def/use ids: a location
// is live on exit from a node when some path from there reads it before
// a strong def of that exact location. Lint's NF202 (dead store) asks it
// per variable; tests check its fixpoint on small programs.
#pragma once

#include <string_view>

#include "analysis/dataflow.h"
#include "analysis/def_use.h"
#include "ir/ir.h"

namespace nfactor::analysis {

class LiveVars {
 public:
  explicit LiveVars(const ir::Cfg& cfg);

  /// Whether `loc` is live on entry to / exit from `node`.
  bool live_in(int node, const ir::Location& loc) const {
    return live(flow_.out, node, du_.find_loc(loc));
  }
  bool live_out(int node, const ir::Location& loc) const {
    return live(flow_.in, node, du_.find_loc(loc));
  }

  /// Whether any location of variable `var`, whole or a field, is live
  /// on exit from `node`.
  bool var_live_out(int node, std::string_view var) const;

 private:
  static bool live(const BitRows& rows, int node, int loc) {
    return loc >= 0 &&
           BitRows::test(rows.row(static_cast<std::size_t>(node)),
                         static_cast<std::size_t>(loc));
  }

  DefUse du_;
  BitFlow flow_;  // backward: in = live out of a node, out = live into it
};

}  // namespace nfactor::analysis
