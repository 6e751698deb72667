#include "analysis/const_prop.h"

#include <algorithm>
#include <deque>
#include <utility>

#include "lang/int_ops.h"
#include "obs/obs.h"

namespace nfactor::analysis {

namespace {

using lang::BinOp;
using lang::UnOp;

ConstVal eval_binary(BinOp op, const ConstVal& l, const ConstVal& r) {
  using K = ConstVal::Kind;
  if (l.is_top() || r.is_top()) return ConstVal::top();
  if (l.is_bottom() || r.is_bottom()) return ConstVal::bottom();

  if (op == BinOp::kEq || op == BinOp::kNe) {
    if (l.kind != r.kind) return ConstVal::bottom();
    bool eq = false;
    switch (l.kind) {
      case K::kInt: eq = l.i == r.i; break;
      case K::kBool: eq = l.b == r.b; break;
      case K::kStr: eq = l.s == r.s; break;
      default: return ConstVal::bottom();
    }
    return ConstVal::of_bool(op == BinOp::kEq ? eq : !eq);
  }

  if (l.kind != K::kInt || r.kind != K::kInt) return ConstVal::bottom();
  if (const auto v = lang::int_ops::compare(op, l.i, r.i)) {
    return ConstVal::of_bool(*v);
  }
  const auto v = lang::int_ops::apply(op, l.i, r.i);
  return v ? ConstVal::of_int(*v) : ConstVal::bottom();
}

}  // namespace

std::string ConstVal::to_string() const {
  switch (kind) {
    case Kind::kTop: return "top";
    case Kind::kBottom: return "bottom";
    case Kind::kInt: return std::to_string(i);
    case Kind::kBool: return b ? "true" : "false";
    case Kind::kStr: return "\"" + s + "\"";
  }
  return "?";
}

ConstVal meet(const ConstVal& a, const ConstVal& b) {
  if (a.is_top()) return b;
  if (b.is_top()) return a;
  if (a == b) return a;
  return ConstVal::bottom();
}

ConstVal eval_const(
    const lang::Expr& e,
    const std::function<ConstVal(const ir::Location&)>& lookup) {
  switch (e.kind) {
    case lang::ExprKind::kIntLit:
      return ConstVal::of_int(static_cast<const lang::IntLit&>(e).value);
    case lang::ExprKind::kBoolLit:
      return ConstVal::of_bool(static_cast<const lang::BoolLit&>(e).value);
    case lang::ExprKind::kStrLit:
      return ConstVal::of_str(static_cast<const lang::StrLit&>(e).value);
    case lang::ExprKind::kVarRef:
      return lookup(static_cast<const lang::VarRef&>(e).name);
    case lang::ExprKind::kField: {
      const auto& f = static_cast<const lang::FieldRef&>(e);
      if (f.base->kind != lang::ExprKind::kVarRef) return ConstVal::bottom();
      const auto& base = static_cast<const lang::VarRef&>(*f.base);
      return lookup(ir::field_loc(base.name, f.field));
    }
    case lang::ExprKind::kUnary:
      return eval_step(
          e, eval_const(*static_cast<const lang::Unary&>(e).operand, lookup),
          ConstVal::top());
    case lang::ExprKind::kBinary: {
      const auto& b = static_cast<const lang::Binary&>(e);
      const ConstVal l = eval_const(*b.lhs, lookup);
      // `and`/`or` read their right side only after a Bool left side
      // that does not decide them.
      const bool logical = b.op == BinOp::kAnd || b.op == BinOp::kOr;
      const bool reads_rhs =
          !logical || (l.kind == ConstVal::Kind::kBool && l.b == (b.op == BinOp::kAnd));
      return eval_step(e, l, reads_rhs ? eval_const(*b.rhs, lookup) : ConstVal::top());
    }
    default:
      // Calls, indexing, membership, and container literals are never
      // constants here (container stores are weak updates).
      return ConstVal::bottom();
  }
}

ConstVal eval_step(const lang::Expr& e, const ConstVal& lhs, const ConstVal& rhs) {
  if (e.kind == lang::ExprKind::kUnary) {
    if (lhs.is_top()) return lhs;
    const UnOp op = static_cast<const lang::Unary&>(e).op;
    if (op == UnOp::kNeg && lhs.kind == ConstVal::Kind::kInt) {
      return ConstVal::of_int(lang::int_ops::neg(lhs.i));
    }
    if (op == UnOp::kNot && lhs.kind == ConstVal::Kind::kBool) {
      return ConstVal::of_bool(!lhs.b);
    }
    return ConstVal::bottom();
  }
  const BinOp op = static_cast<const lang::Binary&>(e).op;
  if (op == BinOp::kAnd || op == BinOp::kOr) {
    // Short-circuit folding only off a Const left side: the right side
    // may divide by zero at runtime, so it must not be skipped on the
    // strength of its own constness.
    if (lhs.kind == ConstVal::Kind::kBool) {
      if (op == BinOp::kAnd && !lhs.b) return ConstVal::of_bool(false);
      if (op == BinOp::kOr && lhs.b) return ConstVal::of_bool(true);
      if (rhs.is_top() || rhs.kind == ConstVal::Kind::kBool) return rhs;
      return ConstVal::bottom();
    }
    return lhs.is_top() ? ConstVal::top() : ConstVal::bottom();
  }
  return eval_binary(op, lhs, rhs);
}

ConstProp::ConstProp(const ir::Cfg& cfg, ConstEnv entry_env)
    : cfg_(cfg), du_(cfg) {
  exec_.assign(cfg.size(), false);
  edge_exec_.resize(cfg.size());
  for (std::size_t i = 0; i < cfg.size(); ++i) {
    edge_exec_[i].assign(cfg.nodes[i]->succs.size(), false);
  }
  in_.resize(cfg.size() * width());
  scratch_.resize(width());
  OBS_GAUGE("constprop.locations", width());
  for (auto& [loc, v] : entry_env) {
    const int id = du_.find_loc(loc);
    if (id < 0) {
      unmentioned_seeds_.emplace(loc, std::move(v));
    } else if (cfg.entry >= 0) {
      row(cfg.entry)[id] = to_cell(v);
    }
  }
  if (cfg.entry < 0) return;

  exec_[static_cast<std::size_t>(cfg.entry)] = true;

  std::deque<std::pair<int, int>> wl;
  const auto push_live_edges = [&](int n) {
    const ir::Instr& nd = cfg_.node(n);
    if (nd.kind == ir::InstrKind::kBranch && nd.succs.size() == 2) {
      const ConstVal d = branch_decision(n);
      if (d.kind == ConstVal::Kind::kBool) {
        wl.emplace_back(n, d.b ? 0 : 1);
      } else if (!d.is_top()) {
        wl.emplace_back(n, 0);
        wl.emplace_back(n, 1);
      }
      // Top: no arm provably executes yet — wait for the condition to
      // descend (it stays Top only for provably-undefined reads, which
      // edge_executable() then reports as both-live).
      return;
    }
    for (int slot = 0; slot < static_cast<int>(nd.succs.size()); ++slot) {
      wl.emplace_back(n, slot);
    }
  };

  std::size_t visits = 0;
  push_live_edges(cfg.entry);
  while (!wl.empty()) {
    const auto [u, slot] = wl.front();
    wl.pop_front();
    ++visits;
    const int v = cfg_.node(u).succs[static_cast<std::size_t>(slot)];
    if (v < 0) continue;
    edge_exec_[static_cast<std::size_t>(u)][static_cast<std::size_t>(slot)] =
        true;
    bool changed = merge_into(v, transfer(u));
    if (!exec_[static_cast<std::size_t>(v)]) {
      exec_[static_cast<std::size_t>(v)] = true;
      changed = true;
    }
    if (changed) push_live_edges(v);
  }
  OBS_GAUGE("constprop.edge_visits", visits);
}

ConstProp::Cell ConstProp::to_cell(const ConstVal& v) {
  switch (v.kind) {
    case ConstVal::Kind::kInt: return {v.kind, v.i};
    case ConstVal::Kind::kBool: return {v.kind, v.b ? 1 : 0};
    case ConstVal::Kind::kStr: {
      const auto [it, fresh] =
          str_ids_.emplace(v.s, static_cast<std::int64_t>(strs_.size()));
      if (fresh) strs_.push_back(v.s);
      return {v.kind, it->second};
    }
    default: return {v.kind, 0};
  }
}

ConstVal ConstProp::to_val(const Cell& c) const {
  switch (c.kind) {
    case ConstVal::Kind::kInt: return ConstVal::of_int(c.v);
    case ConstVal::Kind::kBool: return ConstVal::of_bool(c.v != 0);
    case ConstVal::Kind::kStr:
      return ConstVal::of_str(strs_[static_cast<std::size_t>(c.v)]);
    case ConstVal::Kind::kBottom: return ConstVal::bottom();
    default: return ConstVal::top();
  }
}

const ConstProp::Cell* ConstProp::transfer(int n) {
  const Cell* in = row(n);
  const int first = du_.first_def(n);
  if (first == du_.last_def(n)) return in;
  std::copy(in, in + width(), scratch_.begin());
  constexpr Cell kBottom{ConstVal::Kind::kBottom, 0};
  const auto cell = [this](int id) -> Cell& {
    return scratch_[static_cast<std::size_t>(id)];
  };
  const ir::Instr& nd = cfg_.node(n);
  switch (nd.kind) {
    case ir::InstrKind::kAssign:
    case ir::InstrKind::kRecv: {
      // Whole-variable strong def: the variable's field facts die. A
      // packet def defines every field; any other def leaves the fields
      // it never defined at Top.
      const int whole = du_.def(first).loc;
      const bool packet = nd.kind == ir::InstrKind::kRecv ||
                          nd.value->type == lang::Type::kPacket;
      for (int f = du_.first_field(du_.var_of(whole)); f >= 0;
           f = du_.loc(f).next_field) {
        if (packet || cell(f).kind != ConstVal::Kind::kTop) cell(f) = kBottom;
      }
      cell(whole) = nd.kind == ir::InstrKind::kAssign
                        ? to_cell(eval_in(n, *nd.value))
                        : kBottom;
      break;
    }
    case ir::InstrKind::kFieldStore:
      cell(du_.def(first).loc) = to_cell(eval_in(n, *nd.value));
      break;
    default:
      // Weak container updates and pop's result: unknown afterwards.
      for (int d = first; d < du_.last_def(n); ++d) {
        cell(du_.def(d).loc) = kBottom;
      }
      break;
  }
  return scratch_.data();
}

bool ConstProp::merge_into(int node, const Cell* src) {
  bool changed = false;
  Cell* dst = row(node);
  for (std::size_t i = 0; i < width(); ++i) {
    const Cell& s = src[i];
    Cell& d = dst[i];
    if (s.kind == ConstVal::Kind::kTop || d == s ||
        d.kind == ConstVal::Kind::kBottom) {
      continue;  // Top adds nothing; Bottom absorbs
    }
    d = d.kind == ConstVal::Kind::kTop ? s : Cell{ConstVal::Kind::kBottom, 0};
    changed = true;
  }
  return changed;
}

bool ConstProp::edge_executable(int node, int slot) const {
  if (!exec_[static_cast<std::size_t>(node)]) return false;
  const ir::Instr& nd = cfg_.node(node);
  if (nd.kind == ir::InstrKind::kBranch && branch_decision(node).is_top()) {
    return true;
  }
  const auto& edges = edge_exec_[static_cast<std::size_t>(node)];
  return slot >= 0 && slot < static_cast<int>(edges.size()) &&
         edges[static_cast<std::size_t>(slot)];
}

ConstVal ConstProp::value_in(int node, const ir::Location& loc) const {
  if (const int id = du_.find_loc(loc); id >= 0) return to_val(row(node)[id]);
  if (const auto it = unmentioned_seeds_.find(loc);
      it != unmentioned_seeds_.end()) {
    return exec_[static_cast<std::size_t>(node)] ? it->second : ConstVal::top();
  }
  std::string base;
  const bool field = ir::split_field_loc(loc, &base, nullptr);
  return field && value_in(node, base).is_bottom() ? ConstVal::bottom()
                                                   : ConstVal::top();
}

ConstVal ConstProp::eval_in(int node, const lang::Expr& e) const {
  return eval_const(e, [this, node](const ir::Location& loc) {
    return value_in(node, loc);
  });
}

ConstVal ConstProp::branch_decision(int node) const {
  const ir::Instr& nd = cfg_.node(node);
  return nd.value ? eval_in(node, *nd.value) : ConstVal::bottom();
}

}  // namespace nfactor::analysis
