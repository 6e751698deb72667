// NFactor's intermediate representation: a control-flow graph of simple
// statements whose operands are (builtin-only) expression trees. User
// function calls are inlined away by the lowerer, so every analysis —
// slicing, StateAlyzer, symbolic execution, the concrete runtime —
// operates on one flat per-packet CFG. This mirrors how the paper's
// toolchain (giri on LLVM IR) sees NF code after inlining.
#pragma once

#include <map>
#include <memory>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "lang/ast.h"
#include "lang/sema.h"

namespace nfactor::ir {

/// Storage "locations" used by dependence analysis. A location is either
/// a whole variable ("rr_idx", "f2b_nat") or a packet field
/// ("pkt.ip_src"). Containers are always whole-variable locations
/// (element stores are weak updates).
using Location = std::string;

inline Location field_loc(const std::string& var, const std::string& field) {
  return var + "." + field;
}

/// True when `loc` is a packet-field location; fills base/field.
bool split_field_loc(const Location& loc, std::string* base, std::string* field);

enum class InstrKind : std::uint8_t {
  kEntry,       // unique CFG entry (no-op)
  kExit,        // unique CFG exit (no-op)
  kAssign,      // var = value
  kFieldStore,  // var.field = value
  kIndexStore,  // var[index] = value       (weak update)
  kBranch,      // branch on value; succs = [true_target, false_target]
  kSend,        // send(value /*packet*/, aux /*port*/)
  kRecv,        // var = recv(aux /*port*/)
  kCall,        // effectful builtin: log(args...) / push(var, args) / var = pop(...)
};

std::string to_string(InstrKind k);

struct Instr {
  InstrKind kind = InstrKind::kEntry;
  int id = -1;
  lang::SourceLoc loc;

  std::string var;        // kAssign/kRecv target; kFieldStore/kIndexStore base;
                          // kCall: result target ("" if none)
  std::string field;      // kFieldStore
  lang::ExprPtr index;    // kIndexStore
  lang::ExprPtr value;    // kAssign value / kFieldStore / kIndexStore value /
                          // kBranch condition / kSend packet expr
  lang::ExprPtr aux;      // kSend port / kRecv port
  std::string callee;     // kCall builtin name
  std::vector<lang::ExprPtr> args;  // kCall arguments

  std::vector<int> succs;
  std::vector<int> preds;

  /// Locations read by this instruction (expression operands, weak-update
  /// self-uses, container reads). Built on for_each_use.
  std::set<Location> uses() const;

  /// Locations written. kAssign/kRecv: the variable (strong).
  /// kFieldStore: var.field (strong). kIndexStore: var (weak).
  /// kCall push/pop: the container (weak) and pop's result var.
  /// Built on for_each_def.
  std::set<Location> defs() const;

  /// Whether the write to `loc` is a strong (killing) definition.
  bool is_strong_def(const Location& loc) const;

  /// One-line rendering for dumps and golden tests.
  std::string to_string() const;
};

/// A single-entry single-exit CFG.
struct Cfg {
  std::vector<std::unique_ptr<Instr>> nodes;  // indexed by Instr::id
  int entry = -1;
  int exit = -1;

  Instr& node(int id) { return *nodes[static_cast<std::size_t>(id)]; }
  const Instr& node(int id) const { return *nodes[static_cast<std::size_t>(id)]; }
  std::size_t size() const { return nodes.size(); }

  /// Statement nodes (everything except entry/exit).
  std::vector<int> real_nodes() const;

  /// Distinct source lines covered by the given node set — the paper's
  /// "LoC" metric for slices.
  int source_lines(const std::set<int>& ids) const;
  int source_lines() const;  // all real nodes

  std::string dump() const;
};

struct Global {
  std::string name;
  lang::ExprPtr init;
  lang::Type type = lang::Type::kUnknown;
};

/// A lowered NF: globals, a one-shot init CFG (statements before the
/// packet loop), and the per-packet body CFG anchored at `pkt = recv(...)`.
struct Module {
  std::string name;
  std::vector<Global> globals;
  Cfg init;
  Cfg body;
  std::string pkt_var;     // variable bound by the loop-head recv
  int recv_port_node = -1; // id of the kRecv node in body

  lang::SemaInfo sema;

  /// Persistent variables: lifetime longer than the packet loop —
  /// globals plus variables defined in the init section (StateAlyzer's
  /// "persistent" feature).
  std::set<std::string> persistent;

  const Global* find_global(const std::string& n) const {
    for (const auto& g : globals) {
      if (g.name == n) return &g;
    }
    return nullptr;
  }
};

/// Collect variable/field locations read by an expression tree.
/// A packet-typed VarRef used as a value (e.g. send(pkt, ...)) reads the
/// whole packet location plus nothing finer; pkt.f reads only "pkt.f".
void collect_uses(const lang::Expr& e, std::set<Location>& out);

// ---- The def/use rules, in one place. The walkers below call `f` once
// per location read or written, naming it as (variable, field) with an
// empty field for a whole variable, so callers that intern locations
// (analysis::DefUse) build no strings. uses(), defs(), is_strong_def()
// and collect_uses() are built on them. A location may be reported more
// than once.

/// f(var, field) for every location `e` reads.
template <class F>
void for_each_use(const lang::Expr& e, F&& f) {
  using lang::ExprKind;
  switch (e.kind) {
    case ExprKind::kIntLit:
    case ExprKind::kBoolLit:
    case ExprKind::kStrLit:
    case ExprKind::kMapLit:
      return;
    case ExprKind::kVarRef:
      f(std::string_view(static_cast<const lang::VarRef&>(e).name),
        std::string_view());
      return;
    case ExprKind::kUnary:
      for_each_use(*static_cast<const lang::Unary&>(e).operand, f);
      return;
    case ExprKind::kBinary: {
      const auto& b = static_cast<const lang::Binary&>(e);
      for_each_use(*b.lhs, f);
      for_each_use(*b.rhs, f);
      return;
    }
    case ExprKind::kCall:
      for (const auto& a : static_cast<const lang::Call&>(e).args) {
        for_each_use(*a, f);
      }
      return;
    case ExprKind::kTupleLit:
      for (const auto& x : static_cast<const lang::TupleLit&>(e).elems) {
        for_each_use(*x, f);
      }
      return;
    case ExprKind::kListLit:
      for (const auto& x : static_cast<const lang::ListLit&>(e).elems) {
        for_each_use(*x, f);
      }
      return;
    case ExprKind::kIndex: {
      const auto& i = static_cast<const lang::Index&>(e);
      for_each_use(*i.base, f);
      for_each_use(*i.index, f);
      return;
    }
    case ExprKind::kField: {
      const auto& fr = static_cast<const lang::FieldRef&>(e);
      // pkt.f reads exactly the field location when the base is a plain
      // variable; otherwise fall back to whatever the base reads.
      if (fr.base->kind == ExprKind::kVarRef) {
        f(std::string_view(static_cast<const lang::VarRef&>(*fr.base).name),
          std::string_view(fr.field));
        return;
      }
      for_each_use(*fr.base, f);
      return;
    }
  }
}

/// f(var, field) for every location instruction `n` reads.
template <class F>
void for_each_use(const Instr& n, F&& f) {
  switch (n.kind) {
    case InstrKind::kEntry:
    case InstrKind::kExit:
      return;
    case InstrKind::kAssign:
    case InstrKind::kFieldStore:
    case InstrKind::kBranch:
      for_each_use(*n.value, f);
      return;
    case InstrKind::kIndexStore:
      for_each_use(*n.index, f);
      for_each_use(*n.value, f);
      f(std::string_view(n.var), std::string_view());  // weak update reads it
      return;
    case InstrKind::kSend:
      for_each_use(*n.value, f);
      for_each_use(*n.aux, f);
      return;
    case InstrKind::kRecv:
      if (n.aux) for_each_use(*n.aux, f);
      return;
    case InstrKind::kCall:
      for (const auto& a : n.args) for_each_use(*a, f);
      return;
  }
}

/// f(var, field, strong) for every location instruction `n` writes;
/// `strong` marks a killing write (scalar assign, recv, field store).
template <class F>
void for_each_def(const Instr& n, F&& f) {
  switch (n.kind) {
    case InstrKind::kAssign:
    case InstrKind::kRecv:
      f(std::string_view(n.var), std::string_view(), true);
      return;
    case InstrKind::kFieldStore:
      f(std::string_view(n.var), std::string_view(n.field), true);
      return;
    case InstrKind::kIndexStore:
      f(std::string_view(n.var), std::string_view(), false);
      return;
    case InstrKind::kCall:
      // push/pop mutate their container argument in place.
      if ((n.callee == "push" || n.callee == "pop") && !n.args.empty() &&
          n.args[0]->kind == lang::ExprKind::kVarRef) {
        f(std::string_view(static_cast<const lang::VarRef&>(*n.args[0]).name),
          std::string_view(), false);
      }
      if (!n.var.empty()) f(std::string_view(n.var), std::string_view(), false);
      return;
    default:
      return;
  }
}

/// All VarRef names in an expression (coarser than collect_uses).
void collect_var_names(const lang::Expr& e, std::set<std::string>& out);

}  // namespace nfactor::ir
