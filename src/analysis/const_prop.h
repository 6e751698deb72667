// Sparse conditional constant propagation (SCCP) over the statement CFG.
// The lattice per location is the classic three-level one:
//
//     Top  (no executable definition seen yet — optimistically unknown)
//      |
//    Const (a single int/bool/str constant on every executable path)
//      |
//   Bottom (overdefined: symbolic, container-valued, or conflicting)
//
// The pass interleaves value propagation with edge executability: a
// branch whose condition evaluates to a constant only propagates along
// the taken edge, so code behind provably-dead arms never pollutes the
// merge points (Wegman–Zadeck, adapted to our non-SSA locations).
//
// Environments are dense. Locations are the CFG's def/use ids
// (analysis::DefUse), and each node's entry environment is one row of
// 16-byte cells indexed by location id. A transfer copies its node's row
// into a reused scratch row and applies the node's defs; a merge is a
// linear meet of that row into the successor's.
//
// A location the CFG never mentions has no cell. A seed keeps its seed
// value at executable nodes (nothing writes it) and reads Top elsewhere;
// a field reads Bottom where its variable's whole value is Bottom (a
// packet def or an unknown value smashes every field) and Top otherwise.
//
// Clients:
//   - lint NF204 (unreachable arm) / NF207 (invalid send port), with
//     persistents seeded Bottom or config-seeded respectively;
//   - the lint simplify pass, which folds Const expressions and prunes
//     branch arms whose condition is Const at fixpoint.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "analysis/def_use.h"
#include "ir/ir.h"
#include "lang/ast.h"

namespace nfactor::analysis {

/// One lattice element. Tuples, lists and maps are never tracked as
/// constants (container stores are weak updates) — they go to Bottom.
struct ConstVal {
  enum class Kind : std::uint8_t { kTop, kInt, kBool, kStr, kBottom };

  Kind kind = Kind::kTop;
  std::int64_t i = 0;
  bool b = false;
  std::string s;

  static ConstVal top() { return {}; }
  static ConstVal bottom() { return {Kind::kBottom, 0, false, {}}; }
  static ConstVal of_int(std::int64_t v) { return {Kind::kInt, v, false, {}}; }
  static ConstVal of_bool(bool v) { return {Kind::kBool, 0, v, {}}; }
  static ConstVal of_str(std::string v) {
    return {Kind::kStr, 0, false, std::move(v)};
  }

  bool is_top() const { return kind == Kind::kTop; }
  bool is_bottom() const { return kind == Kind::kBottom; }
  bool is_const() const { return !is_top() && !is_bottom(); }

  bool operator==(const ConstVal& o) const {
    return kind == o.kind && i == o.i && b == o.b && s == o.s;
  }

  std::string to_string() const;
};

/// Lattice meet: Top ∧ x = x; Const(a) ∧ Const(b) = Const(a) when equal,
/// Bottom otherwise; Bottom ∧ x = Bottom.
ConstVal meet(const ConstVal& a, const ConstVal& b);

/// Abstract environment: location -> lattice value. A missing key reads
/// as Top (nothing known yet).
using ConstEnv = std::map<ir::Location, ConstVal>;

/// Abstractly evaluate `e` under `lookup`. Matches the concrete runtime
/// and the symbolic folder exactly where it folds (all three compute
/// through lang/int_ops.h); division/modulo by a constant zero yields
/// Bottom so the runtime's error path is never folded away. `and`/`or` fold via
/// left-to-right short-circuit only when the left side is Const.
ConstVal eval_const(
    const lang::Expr& e,
    const std::function<ConstVal(const ir::Location&)>& lookup);

/// eval_const's step for a Unary or Binary node `e`: its value from its
/// operands' values (`rhs` is ignored for a Unary, and for an `and`/`or`
/// its left side decides). For callers that evaluate bottom-up and
/// already hold the operands' values.
ConstVal eval_step(const lang::Expr& e, const ConstVal& lhs, const ConstVal& rhs);

class ConstProp {
 public:
  /// Runs to fixpoint on construction. `entry_env` seeds the entry
  /// node's environment (typically: every persistent location mapped to
  /// Bottom, or to a Const for config-folded scalars). Locations absent
  /// from the seed start at Top.
  ConstProp(const ir::Cfg& cfg, ConstEnv entry_env);

  /// Whether any executable path reaches `node`.
  bool node_executable(int node) const {
    return exec_[static_cast<std::size_t>(node)];
  }

  /// Whether the edge `node -> succs[slot]` is ever taken. For a branch
  /// with a Top condition at fixpoint both slots read executable (we
  /// refuse to reason about provably-undefined conditions).
  bool edge_executable(int node, int slot) const;

  /// Lattice value of `loc` at the entry of `node`.
  ConstVal value_in(int node, const ir::Location& loc) const;

  /// Abstractly evaluate `e` in `node`'s entry environment.
  ConstVal eval_in(int node, const lang::Expr& e) const;

  /// For a kBranch node: its condition's fixpoint value. Only a Const
  /// bool decides the branch; anything else means both arms stay live.
  ConstVal branch_decision(int node) const;

 private:
  /// One dense lattice cell: the kind plus a payload (the int, the bool
  /// as 0/1, or an id into `strs_`). Top and Bottom carry payload 0, so
  /// cell equality is lattice-value equality.
  struct Cell {
    ConstVal::Kind kind = ConstVal::Kind::kTop;
    std::int64_t v = 0;

    bool operator==(const Cell& o) const { return kind == o.kind && v == o.v; }
  };

  std::size_t width() const {
    return static_cast<std::size_t>(du_.num_locs());
  }
  Cell* row(int node) {
    return in_.data() + static_cast<std::size_t>(node) * width();
  }
  const Cell* row(int node) const {
    return in_.data() + static_cast<std::size_t>(node) * width();
  }
  Cell to_cell(const ConstVal& v);
  ConstVal to_val(const Cell& c) const;
  /// Node `n`'s out-environment: its in-row when it writes nothing,
  /// else scratch_ holding the in-row with the node's defs applied.
  const Cell* transfer(int n);
  /// Pointwise meet of `src` into `node`'s row; true when it descended.
  bool merge_into(int node, const Cell* src);

  const ir::Cfg& cfg_;
  DefUse du_;
  ConstEnv unmentioned_seeds_;  // seeds the CFG never reads or writes
  std::vector<std::string> strs_;
  std::map<std::string, std::int64_t> str_ids_;
  std::vector<Cell> in_;       // cfg_.size() rows of width() cells
  std::vector<Cell> scratch_;  // one row, reused by every transfer
  std::vector<bool> exec_;
  std::vector<std::vector<bool>> edge_exec_;
};

}  // namespace nfactor::analysis
