#include "symex/expr.h"

#include <sstream>
#include <unordered_map>
#include <unordered_set>

#include "lang/int_ops.h"
#include "symex/intern.h"

namespace nfactor::symex {

namespace {

SymExpr raw(SymKind k) {
  SymExpr e;
  e.kind = k;
  return e;
}

}  // namespace

SymExpr::SymExpr(SymExpr&& o) noexcept
    : kind(o.kind),
      int_val(o.int_val),
      bool_val(o.bool_val),
      str_val(std::move(o.str_val)),
      tuple_val(std::move(o.tuple_val)),
      operands(std::move(o.operands)),
      bin_op(o.bin_op),
      un_op(o.un_op),
      var_class(o.var_class),
      fields(std::move(o.fields)),
      fp(o.fp),
      key_(o.key_.exchange(nullptr, std::memory_order_acq_rel)) {}

SymExpr::~SymExpr() { delete key_.load(std::memory_order_acquire); }

const std::string& SymExpr::key() const {
  if (const std::string* k = key_.load(std::memory_order_acquire)) return *k;
  std::ostringstream os;
  switch (kind) {
    case SymKind::kConstInt: os << 'i' << int_val; break;
    case SymKind::kConstBool: os << (bool_val ? "#t" : "#f"); break;
    case SymKind::kConstStr: os << 's' << str_val; break;
    case SymKind::kConstTuple: {
      os << "t(";
      for (const Int x : tuple_val) os << x << ',';
      os << ')';
      break;
    }
    case SymKind::kConstList: {
      os << "L(";
      for (const auto& x : operands) os << x->key() << ',';
      os << ')';
      break;
    }
    case SymKind::kVar: os << 'v' << str_val; break;
    case SymKind::kUn:
      os << lang::to_string(un_op) << '(' << operands[0]->key() << ')';
      break;
    case SymKind::kBin:
      os << '(' << operands[0]->key() << ' ' << lang::to_string(bin_op) << ' '
         << operands[1]->key() << ')';
      break;
    case SymKind::kTupleExpr: {
      os << "T(";
      for (const auto& x : operands) os << x->key() << ',';
      os << ')';
      break;
    }
    case SymKind::kListGet:
      os << "lg(" << operands[0]->key() << ',' << operands[1]->key() << ')';
      break;
    case SymKind::kMapBase: os << "M0:" << str_val; break;
    case SymKind::kMapStore:
      os << "st(" << operands[0]->key() << ',' << operands[1]->key() << ','
         << operands[2]->key() << ')';
      break;
    case SymKind::kMapGet:
      os << "get(" << operands[0]->key() << ',' << operands[1]->key() << ')';
      break;
    case SymKind::kContains:
      os << "in(" << operands[1]->key() << ',' << operands[0]->key() << ')';
      break;
    case SymKind::kCall: {
      os << str_val << '(';
      for (const auto& x : operands) os << x->key() << ',';
      os << ')';
      break;
    }
    case SymKind::kPacket: {
      os << "P{";
      for (const auto& [f, v] : fields) os << f << '=' << v->key() << ';';
      os << '}';
      break;
    }
  }
  auto* fresh = new std::string(os.str());
  const std::string* expected = nullptr;
  if (!key_.compare_exchange_strong(expected, fresh,
                                    std::memory_order_acq_rel,
                                    std::memory_order_acquire)) {
    delete fresh;  // another thread rendered the same key first
    return *expected;
  }
  return *fresh;
}

SymRef make_int(Int v) {
  auto e = raw(SymKind::kConstInt);
  e.int_val = v;
  return intern_node(std::move(e));
}

SymRef make_bool(bool v) {
  auto e = raw(SymKind::kConstBool);
  e.bool_val = v;
  return intern_node(std::move(e));
}

SymRef make_str(std::string s) {
  auto e = raw(SymKind::kConstStr);
  e.str_val = std::move(s);
  return intern_node(std::move(e));
}

SymRef make_tuple_const(std::vector<Int> t) {
  auto e = raw(SymKind::kConstTuple);
  e.tuple_val = std::move(t);
  return intern_node(std::move(e));
}

SymRef make_list_const(std::vector<SymRef> elems) {
  auto e = raw(SymKind::kConstList);
  e.operands = std::move(elems);
  return intern_node(std::move(e));
}

SymRef make_var(std::string name, VarClass cls) {
  auto e = raw(SymKind::kVar);
  e.str_val = std::move(name);
  e.var_class = cls;
  return intern_node(std::move(e));
}

SymRef make_un(lang::UnOp op, SymRef a) {
  if (op == lang::UnOp::kNeg && is_const_int(a)) {
    return make_int(lang::int_ops::neg(a->int_val));
  }
  if (op == lang::UnOp::kNot) return negate(a);
  auto e = raw(SymKind::kUn);
  e.un_op = op;
  e.operands = {std::move(a)};
  return intern_node(std::move(e));
}

SymRef negate(const SymRef& a) {
  using lang::BinOp;
  if (is_const_bool(a)) return make_bool(!a->bool_val);
  if (a->kind == SymKind::kUn && a->un_op == lang::UnOp::kNot) {
    return a->operands[0];
  }
  if (a->kind == SymKind::kBin) {
    auto inverted = [&](BinOp op) {
      auto e = raw(SymKind::kBin);
      e.bin_op = op;
      e.operands = a->operands;
      return intern_node(std::move(e));
    };
    switch (a->bin_op) {
      case BinOp::kEq: return inverted(BinOp::kNe);
      case BinOp::kNe: return inverted(BinOp::kEq);
      case BinOp::kLt: return inverted(BinOp::kGe);
      case BinOp::kGe: return inverted(BinOp::kLt);
      case BinOp::kGt: return inverted(BinOp::kLe);
      case BinOp::kLe: return inverted(BinOp::kGt);
      default: break;
    }
  }
  auto e = raw(SymKind::kUn);
  e.un_op = lang::UnOp::kNot;
  e.operands = {a};
  return intern_node(std::move(e));
}

SymRef make_bin(lang::BinOp op, SymRef a, SymRef b) {
  using lang::BinOp;
  // Constant folding.
  if (is_const_int(a) && is_const_int(b)) {
    if (const auto v = lang::int_ops::compare(op, a->int_val, b->int_val)) {
      return make_bool(*v);
    }
    if (const auto v = lang::int_ops::apply(op, a->int_val, b->int_val)) {
      return make_int(*v);
    }
  }
  if (is_const_bool(a) && is_const_bool(b)) {
    switch (op) {
      case BinOp::kAnd: return make_bool(a->bool_val && b->bool_val);
      case BinOp::kOr: return make_bool(a->bool_val || b->bool_val);
      case BinOp::kEq: return make_bool(a->bool_val == b->bool_val);
      case BinOp::kNe: return make_bool(a->bool_val != b->bool_val);
      default: break;
    }
  }
  // Short-circuit simplifications.
  if (op == BinOp::kAnd) {
    if (is_const_bool(a)) return a->bool_val ? b : make_bool(false);
    if (is_const_bool(b)) return b->bool_val ? a : make_bool(false);
  }
  if (op == BinOp::kOr) {
    if (is_const_bool(a)) return a->bool_val ? make_bool(true) : b;
    if (is_const_bool(b)) return b->bool_val ? make_bool(true) : a;
  }
  // Tuple equality folding.
  if ((op == BinOp::kEq || op == BinOp::kNe) &&
      a->kind == SymKind::kConstTuple && b->kind == SymKind::kConstTuple) {
    const bool eq = a->tuple_val == b->tuple_val;
    return make_bool(op == BinOp::kEq ? eq : !eq);
  }
  // Syntactic identity: e == e is true (a pointer compare when interned).
  if ((op == BinOp::kEq || op == BinOp::kLe || op == BinOp::kGe) &&
      struct_eq(a, b)) {
    return make_bool(true);
  }
  if ((op == BinOp::kNe || op == BinOp::kLt || op == BinOp::kGt) &&
      struct_eq(a, b)) {
    return make_bool(false);
  }
  // x + 0, x - 0, x * 1, x % with concrete... keep it minimal: identities.
  if (op == BinOp::kAdd && is_const_int(b) && b->int_val == 0) return a;
  if (op == BinOp::kAdd && is_const_int(a) && a->int_val == 0) return b;
  if (op == BinOp::kSub && is_const_int(b) && b->int_val == 0) return a;
  if (op == BinOp::kMul && is_const_int(b) && b->int_val == 1) return a;
  if (op == BinOp::kMul && is_const_int(a) && a->int_val == 1) return b;

  auto e = raw(SymKind::kBin);
  e.bin_op = op;
  e.operands = {std::move(a), std::move(b)};
  return intern_node(std::move(e));
}

SymRef make_tuple(std::vector<SymRef> elems) {
  bool all_const = true;
  for (const auto& x : elems) all_const &= is_const_int(x);
  if (all_const) {
    std::vector<Int> t;
    t.reserve(elems.size());
    for (const auto& x : elems) t.push_back(x->int_val);
    return make_tuple_const(std::move(t));
  }
  auto e = raw(SymKind::kTupleExpr);
  e.operands = std::move(elems);
  return intern_node(std::move(e));
}

SymRef make_list_get(SymRef list, SymRef idx) {
  if (list->kind == SymKind::kConstList && is_const_int(idx)) {
    const Int i = idx->int_val;
    if (i >= 0 && static_cast<std::size_t>(i) < list->operands.size()) {
      return list->operands[static_cast<std::size_t>(i)];
    }
  }
  auto e = raw(SymKind::kListGet);
  e.operands = {std::move(list), std::move(idx)};
  return intern_node(std::move(e));
}

SymRef make_map_base(std::string name) {
  auto e = raw(SymKind::kMapBase);
  e.str_val = std::move(name);
  return intern_node(std::move(e));
}

SymRef make_map_store(SymRef map, SymRef key, SymRef value) {
  auto e = raw(SymKind::kMapStore);
  e.operands = {std::move(map), std::move(key), std::move(value)};
  return intern_node(std::move(e));
}

namespace {

/// Definitely-different keys: both fully concrete and unequal.
bool keys_definitely_differ(const SymRef& a, const SymRef& b) {
  if (a->kind == SymKind::kConstTuple && b->kind == SymKind::kConstTuple) {
    return a->tuple_val != b->tuple_val;
  }
  if (is_const_int(a) && is_const_int(b)) return a->int_val != b->int_val;
  return false;
}

}  // namespace

SymRef make_map_get(SymRef map, SymRef key) {
  // Resolve through the store chain when possible.
  SymRef m = map;
  while (m->kind == SymKind::kMapStore) {
    const SymRef& sk = m->operands[1];
    if (struct_eq(sk, key)) return m->operands[2];
    if (keys_definitely_differ(sk, key)) {
      m = m->operands[0];
      continue;
    }
    break;  // undecidable: keep the residual over the full chain
  }
  auto e = raw(SymKind::kMapGet);
  e.operands = {std::move(map), std::move(key)};
  return intern_node(std::move(e));
}

SymRef make_contains(SymRef container, SymRef key) {
  if (container->kind == SymKind::kConstList) {
    // Concrete list: fold when the key is concrete too.
    bool all_comparable = key->kind == SymKind::kConstTuple || is_const_int(key);
    if (all_comparable) {
      for (const auto& x : container->operands) {
        if (struct_eq(x, key)) return make_bool(true);
        if (!keys_definitely_differ(x, key)) {
          all_comparable = false;
          break;
        }
      }
      if (all_comparable) return make_bool(false);
    }
  }
  SymRef m = container;
  while (m->kind == SymKind::kMapStore) {
    const SymRef& sk = m->operands[1];
    if (struct_eq(sk, key)) return make_bool(true);
    if (keys_definitely_differ(sk, key)) {
      m = m->operands[0];
      continue;
    }
    break;
  }
  // Empty concrete base: a MapBase marked concrete-empty would fold to
  // false; initial state maps stay symbolic (the whole point: membership
  // is a state match).
  auto e = raw(SymKind::kContains);
  e.operands = {std::move(m), std::move(key)};
  return intern_node(std::move(e));
}

SymRef make_call(std::string name, std::vector<SymRef> args) {
  auto e = raw(SymKind::kCall);
  e.str_val = std::move(name);
  e.operands = std::move(args);
  return intern_node(std::move(e));
}

SymRef make_packet(std::map<std::string, SymRef> fields) {
  auto e = raw(SymKind::kPacket);
  e.fields = std::move(fields);
  return intern_node(std::move(e));
}

std::string to_string(const SymExpr& e) {
  std::ostringstream os;
  switch (e.kind) {
    case SymKind::kConstInt: os << e.int_val; break;
    case SymKind::kConstBool: os << (e.bool_val ? "true" : "false"); break;
    case SymKind::kConstStr: os << '"' << e.str_val << '"'; break;
    case SymKind::kConstTuple: {
      os << '(';
      for (std::size_t i = 0; i < e.tuple_val.size(); ++i) {
        if (i) os << ", ";
        os << e.tuple_val[i];
      }
      os << ')';
      break;
    }
    case SymKind::kConstList: {
      os << '[';
      for (std::size_t i = 0; i < e.operands.size(); ++i) {
        if (i) os << ", ";
        os << to_string(*e.operands[i]);
      }
      os << ']';
      break;
    }
    case SymKind::kVar: os << e.str_val; break;
    case SymKind::kUn:
      os << lang::to_string(e.un_op) << '(' << to_string(*e.operands[0]) << ')';
      break;
    case SymKind::kBin:
      os << '(' << to_string(*e.operands[0]) << ' ' << lang::to_string(e.bin_op)
         << ' ' << to_string(*e.operands[1]) << ')';
      break;
    case SymKind::kTupleExpr: {
      os << '(';
      for (std::size_t i = 0; i < e.operands.size(); ++i) {
        if (i) os << ", ";
        os << to_string(*e.operands[i]);
      }
      os << ')';
      break;
    }
    case SymKind::kListGet:
      os << to_string(*e.operands[0]) << '[' << to_string(*e.operands[1]) << ']';
      break;
    case SymKind::kMapBase: os << e.str_val; break;
    case SymKind::kMapStore:
      os << to_string(*e.operands[0]) << "{" << to_string(*e.operands[1])
         << " -> " << to_string(*e.operands[2]) << "}";
      break;
    case SymKind::kMapGet:
      os << to_string(*e.operands[0]) << '[' << to_string(*e.operands[1]) << ']';
      break;
    case SymKind::kContains:
      os << to_string(*e.operands[1]) << " in " << to_string(*e.operands[0]);
      break;
    case SymKind::kCall: {
      os << e.str_val << '(';
      for (std::size_t i = 0; i < e.operands.size(); ++i) {
        if (i) os << ", ";
        os << to_string(*e.operands[i]);
      }
      os << ')';
      break;
    }
    case SymKind::kPacket: {
      os << "packet{";
      bool first = true;
      for (const auto& [f, v] : e.fields) {
        if (!first) os << ", ";
        first = false;
        os << f << '=' << to_string(*v);
      }
      os << '}';
      break;
    }
  }
  return os.str();
}

namespace {

/// Memoized substitution worker. Keyed by node identity: shared subtrees
/// (deep map-store chains are *all* sharing) are rewritten exactly once
/// instead of once per path to them, which is the difference between
/// linear and exponential on adversarial DAGs.
SymRef substitute_memo(const SymRef& e,
                       const std::map<std::string, SymRef>& subst,
                       std::unordered_map<const SymExpr*, SymRef>& memo) {
  switch (e->kind) {
    case SymKind::kVar:
    case SymKind::kMapBase: {
      const auto it = subst.find(e->str_val);
      return it == subst.end() ? e : it->second;
    }
    case SymKind::kConstInt:
    case SymKind::kConstBool:
    case SymKind::kConstStr:
    case SymKind::kConstTuple:
      return e;
    default:
      break;
  }
  if (const auto it = memo.find(e.get()); it != memo.end()) return it->second;
  std::vector<SymRef> ops;
  ops.reserve(e->operands.size());
  bool changed = false;
  for (const auto& c : e->operands) {
    ops.push_back(substitute_memo(c, subst, memo));
    changed |= ops.back() != c;
  }
  std::map<std::string, SymRef> fields;
  for (const auto& [f, v] : e->fields) {
    fields[f] = substitute_memo(v, subst, memo);
    changed |= fields[f] != v;
  }
  SymRef result = e;
  if (changed) {
    switch (e->kind) {
      case SymKind::kConstList: result = make_list_const(std::move(ops)); break;
      case SymKind::kUn: result = make_un(e->un_op, std::move(ops[0])); break;
      case SymKind::kBin:
        result = make_bin(e->bin_op, std::move(ops[0]), std::move(ops[1]));
        break;
      case SymKind::kTupleExpr: result = make_tuple(std::move(ops)); break;
      case SymKind::kListGet:
        result = make_list_get(std::move(ops[0]), std::move(ops[1]));
        break;
      case SymKind::kMapStore:
        result = make_map_store(std::move(ops[0]), std::move(ops[1]),
                                std::move(ops[2]));
        break;
      case SymKind::kMapGet:
        result = make_map_get(std::move(ops[0]), std::move(ops[1]));
        break;
      case SymKind::kContains:
        result = make_contains(std::move(ops[0]), std::move(ops[1]));
        break;
      case SymKind::kCall: result = make_call(e->str_val, std::move(ops)); break;
      case SymKind::kPacket: result = make_packet(std::move(fields)); break;
      default:
        break;
    }
  }
  memo.emplace(e.get(), result);
  return result;
}

void collect_vars_memo(const SymRef& e, std::map<std::string, VarClass>& out,
                       std::unordered_set<const SymExpr*>& visited) {
  if (!visited.insert(e.get()).second) return;
  if (e->kind == SymKind::kVar) {
    out.emplace(e->str_val, e->var_class);
  }
  for (const auto& c : e->operands) collect_vars_memo(c, out, visited);
  for (const auto& [f, v] : e->fields) {
    (void)f;
    collect_vars_memo(v, out, visited);
  }
}

}  // namespace

SymRef substitute(const SymRef& e, const std::map<std::string, SymRef>& subst) {
  std::unordered_map<const SymExpr*, SymRef> memo;
  return substitute_memo(e, subst, memo);
}

void collect_vars(const SymRef& e, std::map<std::string, VarClass>& out) {
  std::unordered_set<const SymExpr*> visited;
  collect_vars_memo(e, out, visited);
}

namespace {

void collect_map_bases(const SymRef& e, std::map<std::string, SymRef>& subst,
                       const std::string& prefix,
                       std::unordered_set<const SymExpr*>& visited) {
  if (!visited.insert(e.get()).second) return;
  if (e->kind == SymKind::kMapBase && e->str_val != "{}" &&
      !subst.count(e->str_val)) {
    subst[e->str_val] = make_map_base(prefix + e->str_val);
  }
  for (const auto& c : e->operands) collect_map_bases(c, subst, prefix, visited);
  for (const auto& [f, v] : e->fields) {
    (void)f;
    collect_map_bases(v, subst, prefix, visited);
  }
}

}  // namespace

SymRef prefix_symbols(const SymRef& e, const std::string& prefix) {
  std::map<std::string, VarClass> vars;
  collect_vars(e, vars);
  std::map<std::string, SymRef> subst;
  for (const auto& [name, cls] : vars) {
    if (cls == VarClass::kState || cls == VarClass::kCfg) {
      subst[name] = make_var(prefix + name, cls);
    }
  }
  std::unordered_set<const SymExpr*> visited;
  collect_map_bases(e, subst, prefix, visited);
  return subst.empty() ? e : substitute(e, subst);
}

}  // namespace nfactor::symex
