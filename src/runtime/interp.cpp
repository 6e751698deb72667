#include "runtime/interp.h"

#include <algorithm>

#include "lang/builtins.h"
#include "lang/int_ops.h"

namespace nfactor::runtime {

namespace {

using lang::Expr;
using lang::ExprKind;

Int as_int_or_throw(const Value& v, lang::SourceLoc loc, const char* what) {
  if (v.is_int()) return v.as_int();
  if (v.is_bool()) return v.as_bool() ? 1 : 0;
  throw RuntimeError(loc, std::string(what) + " must be an int, got " +
                              to_string(v));
}

bool as_bool_or_throw(const Value& v, lang::SourceLoc loc) {
  if (v.is_bool()) return v.as_bool();
  if (v.is_int()) return v.as_int() != 0;
  throw RuntimeError(loc, "condition must be bool, got " + to_string(v));
}

}  // namespace

Interpreter::Interpreter(const ir::Module& m) : m_(m) { reset(); }

void Interpreter::reset() {
  persistent_.clear();
  locals_.clear();
  log_.clear();
  trace_.clear();
  last_def_.clear();

  for (const auto& g : m_.globals) {
    persistent_[g.name] = eval(*g.init);
  }
  Output scratch;
  run_cfg(m_.init, &scratch, /*is_body=*/false);
  // Anything the init section defined becomes persistent.
  for (auto& [name, v] : locals_) persistent_[name] = std::move(v);
  locals_.clear();
}

const Value* Interpreter::global(const std::string& name) const {
  const auto it = persistent_.find(name);
  return it == persistent_.end() ? nullptr : &it->second;
}

void Interpreter::set_global(const std::string& name, Value v) {
  persistent_[name] = std::move(v);
}

Value& Interpreter::lvalue(const std::string& var, lang::SourceLoc loc) {
  (void)loc;
  if (const auto it = persistent_.find(var); it != persistent_.end()) {
    return it->second;
  }
  return locals_[var];
}

Value Interpreter::lookup(const std::string& var, lang::SourceLoc loc) {
  if (const auto it = locals_.find(var); it != locals_.end()) return it->second;
  if (const auto it = persistent_.find(var); it != persistent_.end()) {
    return it->second;
  }
  throw RuntimeError(loc, "read of unset variable '" + var + "'");
}

Output Interpreter::process(const netsim::Packet& in) {
  locals_.clear();
  Output out;
  // Bind the packet: the kRecv node does this on execution.
  pending_input_ = in;
  run_cfg(m_.body, &out, /*is_body=*/true);
  return out;
}

void Interpreter::run_cfg(const ir::Cfg& cfg, Output* out, bool is_body) {
  if (cfg.nodes.empty()) return;
  cur_out_ = out;
  std::size_t steps = 0;
  int cur = cfg.entry;
  while (cur != cfg.exit) {
    if (++steps > step_limit_) {
      throw RuntimeError(cfg.node(cur).loc,
                         "step limit exceeded (runaway loop?)");
    }
    const ir::Instr& n = cfg.node(cur);
    int next = n.succs.empty() ? cfg.exit : n.succs[0];

    switch (n.kind) {
      case ir::InstrKind::kEntry:
      case ir::InstrKind::kExit:
        break;
      case ir::InstrKind::kRecv:
        if (is_body) lvalue(n.var, n.loc) = Value(pending_input_);
        if (tracing_ && is_body) record_event(n);
        break;
      case ir::InstrKind::kAssign:
        if (tracing_ && is_body) record_event(n);
        lvalue(n.var, n.loc) = eval(*n.value);
        break;
      case ir::InstrKind::kFieldStore: {
        if (tracing_ && is_body) record_event(n);
        Value& base = lvalue(n.var, n.loc);
        if (!base.is_packet()) {
          throw RuntimeError(n.loc, "field store on non-packet '" + n.var + "'");
        }
        set_packet_field(base.as_packet(), n.field,
                         as_int_or_throw(eval(*n.value), n.loc, "field value"));
        break;
      }
      case ir::InstrKind::kIndexStore: {
        if (tracing_ && is_body) record_event(n);
        Value& base = lvalue(n.var, n.loc);
        if (base.is_map()) {
          base.as_map().items[to_key(eval(*n.index))] = eval(*n.value);
        } else if (base.is_list()) {
          const Int i = as_int_or_throw(eval(*n.index), n.loc, "list index");
          auto& items = base.as_list().items;
          if (i < 0 || static_cast<std::size_t>(i) >= items.size()) {
            throw RuntimeError(n.loc, "list index out of range");
          }
          items[static_cast<std::size_t>(i)] = eval(*n.value);
        } else {
          throw RuntimeError(n.loc, "element store on non-container '" +
                                        n.var + "'");
        }
        break;
      }
      case ir::InstrKind::kBranch: {
        if (tracing_ && is_body) record_event(n);
        const bool taken = as_bool_or_throw(eval(*n.value), n.loc);
        next = taken ? n.succs[0] : n.succs[1];
        break;
      }
      case ir::InstrKind::kSend: {
        if (tracing_ && is_body) record_event(n);
        const Value pkt = eval(*n.value);
        if (!pkt.is_packet()) {
          throw RuntimeError(n.loc, "send() of non-packet value");
        }
        const Int port = as_int_or_throw(eval(*n.aux), n.loc, "send port");
        if (cur_out_) {
          cur_out_->sent.emplace_back(pkt.as_packet(), static_cast<int>(port));
        }
        break;
      }
      case ir::InstrKind::kCall:
        if (tracing_ && is_body) record_event(n);
        if (n.callee == "log") {
          std::string line;
          for (std::size_t i = 0; i < n.args.size(); ++i) {
            if (i) line += " ";
            line += to_string(eval(*n.args[i]));
          }
          log_.push_back(std::move(line));
        } else if (n.callee == "push") {
          Value container = eval(*n.args[0]);
          if (!container.is_list()) {
            throw RuntimeError(n.loc, "push() needs a list");
          }
          container.as_list().items.push_back(eval(*n.args[1]));
        } else if (n.callee == "pop") {
          Value container = eval(*n.args[0]);
          if (!container.is_list() || container.as_list().items.empty()) {
            throw RuntimeError(n.loc, "pop() from empty or non-list");
          }
          Value front = container.as_list().items.front();
          container.as_list().items.erase(container.as_list().items.begin());
          if (!n.var.empty()) lvalue(n.var, n.loc) = std::move(front);
        } else {
          throw RuntimeError(n.loc, "unknown effect builtin '" + n.callee + "'");
        }
        break;
    }

    // Record definitions for dynamic def-use links.
    if (tracing_ && is_body && !trace_.empty() &&
        trace_.back().node == n.id) {
      for (const auto& d : n.defs()) {
        last_def_[d] = static_cast<int>(trace_.size()) - 1;
      }
    }

    cur = next;
  }
  cur_out_ = nullptr;
}

void Interpreter::record_event(const ir::Instr& n) {
  analysis::TraceEvent ev;
  ev.node = n.id;
  // A use of a whole variable (e.g. send(pkt, ...)) reads every live
  // partial definition (each field's latest store), so the event links to
  // all of them — keyed by the defining location.
  for (const auto& u : n.uses()) {
    for (const auto& [loc, idx] : last_def_) {
      if (!analysis::locations_alias(loc, u)) continue;
      auto [it, inserted] = ev.use_defs.emplace(loc, idx);
      if (!inserted) it->second = std::max(it->second, idx);
    }
  }
  trace_.push_back(std::move(ev));
}

Value Interpreter::eval(const Expr& e) {
  switch (e.kind) {
    case ExprKind::kIntLit:
      return Value(static_cast<const lang::IntLit&>(e).value);
    case ExprKind::kBoolLit:
      return Value(static_cast<const lang::BoolLit&>(e).value);
    case ExprKind::kStrLit:
      return Value(static_cast<const lang::StrLit&>(e).value);
    case ExprKind::kMapLit:
      return Value(std::make_shared<MapV>());
    case ExprKind::kVarRef:
      return lookup(static_cast<const lang::VarRef&>(e).name, e.loc);
    case ExprKind::kUnary: {
      const auto& u = static_cast<const lang::Unary&>(e);
      const Value x = eval(*u.operand);
      if (u.op == lang::UnOp::kNeg) {
        return Value(
            lang::int_ops::neg(as_int_or_throw(x, e.loc, "negation operand")));
      }
      return Value(!as_bool_or_throw(x, e.loc));
    }
    case ExprKind::kBinary: {
      const auto& b = static_cast<const lang::Binary&>(e);
      using lang::BinOp;
      // Short-circuit logicals.
      if (b.op == BinOp::kAnd) {
        return Value(as_bool_or_throw(eval(*b.lhs), e.loc) &&
                     as_bool_or_throw(eval(*b.rhs), e.loc));
      }
      if (b.op == BinOp::kOr) {
        return Value(as_bool_or_throw(eval(*b.lhs), e.loc) ||
                     as_bool_or_throw(eval(*b.rhs), e.loc));
      }
      const Value l = eval(*b.lhs);
      const Value r = eval(*b.rhs);
      switch (b.op) {
        case BinOp::kEq: return Value(value_eq(l, r));
        case BinOp::kNe: return Value(!value_eq(l, r));
        case BinOp::kIn: {
          if (r.is_map()) {
            return Value(r.as_map().items.count(to_key(l)) != 0);
          }
          if (r.is_list()) {
            for (const auto& x : r.as_list().items) {
              if (value_eq(x, l)) return Value(true);
            }
            return Value(false);
          }
          throw RuntimeError(e.loc, "'in' needs a map or list");
        }
        default:
          break;
      }
      const Int a = as_int_or_throw(l, e.loc, "left operand");
      const Int c = as_int_or_throw(r, e.loc, "right operand");
      if (const auto v = lang::int_ops::compare(b.op, a, c)) return Value(*v);
      if (const auto v = lang::int_ops::apply(b.op, a, c)) return Value(*v);
      if (b.op == BinOp::kDiv) throw RuntimeError(e.loc, "division by zero");
      if (b.op == BinOp::kMod) throw RuntimeError(e.loc, "modulo by zero");
      throw RuntimeError(e.loc, "unhandled binary operator");
    }
    case ExprKind::kTupleLit: {
      const auto& t = static_cast<const lang::TupleLit&>(e);
      Tuple out;
      out.reserve(t.elems.size());
      for (const auto& x : t.elems) {
        out.push_back(as_int_or_throw(eval(*x), e.loc, "tuple element"));
      }
      return Value(std::move(out));
    }
    case ExprKind::kListLit: {
      const auto& l = static_cast<const lang::ListLit&>(e);
      auto out = std::make_shared<ListV>();
      out->items.reserve(l.elems.size());
      for (const auto& x : l.elems) out->items.push_back(eval(*x));
      return Value(std::move(out));
    }
    case ExprKind::kIndex: {
      const auto& i = static_cast<const lang::Index&>(e);
      const Value base = eval(*i.base);
      if (base.is_tuple()) {
        const Int idx = as_int_or_throw(eval(*i.index), e.loc, "tuple index");
        const auto& t = base.as_tuple();
        if (idx < 0 || static_cast<std::size_t>(idx) >= t.size()) {
          throw RuntimeError(e.loc, "tuple index out of range");
        }
        return Value(t[static_cast<std::size_t>(idx)]);
      }
      if (base.is_list()) {
        const Int idx = as_int_or_throw(eval(*i.index), e.loc, "list index");
        const auto& items = base.as_list().items;
        if (idx < 0 || static_cast<std::size_t>(idx) >= items.size()) {
          throw RuntimeError(e.loc, "list index out of range");
        }
        return items[static_cast<std::size_t>(idx)];
      }
      if (base.is_map()) {
        const Tuple key = to_key(eval(*i.index));
        const auto& items = base.as_map().items;
        const auto it = items.find(key);
        if (it == items.end()) {
          throw RuntimeError(e.loc, "map key not found: " +
                                        to_string(Value(key)));
        }
        return it->second;
      }
      throw RuntimeError(e.loc, "indexing non-container value");
    }
    case ExprKind::kField: {
      const auto& f = static_cast<const lang::FieldRef&>(e);
      const Value base = eval(*f.base);
      if (!base.is_packet()) {
        throw RuntimeError(e.loc, "field access on non-packet value");
      }
      return Value(get_packet_field(base.as_packet(), f.field));
    }
    case ExprKind::kCall:
      return eval_call(static_cast<const lang::Call&>(e));
  }
  throw RuntimeError(e.loc, "unhandled expression kind");
}

Value Interpreter::eval_call(const lang::Call& c) {
  if (c.callee == "len") {
    const Value x = eval(*c.args[0]);
    if (x.is_tuple()) return Value(static_cast<Int>(x.as_tuple().size()));
    if (x.is_list()) return Value(static_cast<Int>(x.as_list().items.size()));
    if (x.is_map()) return Value(static_cast<Int>(x.as_map().items.size()));
    if (x.is_str()) return Value(static_cast<Int>(x.as_str().size()));
    throw RuntimeError(c.loc, "len() of unsupported value");
  }
  if (c.callee == "hash") {
    return Value(dsl_hash(to_key(eval(*c.args[0]))));
  }
  if (c.callee == "payload_contains") {
    const Value p = eval(*c.args[0]);
    const Value s = eval(*c.args[1]);
    if (!p.is_packet() || !s.is_str()) {
      throw RuntimeError(c.loc, "payload_contains(packet, str)");
    }
    const auto& pay = p.as_packet().payload;
    const auto& needle = s.as_str();
    if (needle.empty()) return Value(true);
    const auto it = std::search(pay.begin(), pay.end(), needle.begin(), needle.end());
    return Value(it != pay.end());
  }
  throw RuntimeError(c.loc, "call to '" + c.callee +
                                "' not executable in expression position");
}

}  // namespace nfactor::runtime
