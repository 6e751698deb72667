#include "symex/concrete_eval.h"

#include <algorithm>
#include <stdexcept>

#include "lang/int_ops.h"

namespace nfactor::symex {

namespace {

using runtime::Int;
using runtime::ListV;
using runtime::MapV;
using runtime::Tuple;
using runtime::Value;

Int as_int(const Value& v) {
  if (v.is_int()) return v.as_int();
  if (v.is_bool()) return v.as_bool() ? 1 : 0;
  throw std::runtime_error("expected int, got " + runtime::to_string(v));
}

bool as_bool(const Value& v) {
  if (v.is_bool()) return v.as_bool();
  if (v.is_int()) return v.as_int() != 0;
  throw std::runtime_error("expected bool, got " + runtime::to_string(v));
}

/// Materialize a map expression (base + store chain) into `out`.
void materialize_map(const SymRef& e, const ConcreteEnv& env, MapV& out) {
  if (e->kind == SymKind::kMapBase) {
    if (e->str_val != "{}") {
      const MapV* base = env.map_base(e->str_val);
      if (base != nullptr) out = *base;
    }
    return;
  }
  if (e->kind == SymKind::kMapStore) {
    materialize_map(e->operands[0], env, out);
    const Value key = eval_concrete(e->operands[1], env);
    const Value val = eval_concrete(e->operands[2], env);
    out.items[runtime::to_key(key)] = val;
    return;
  }
  throw std::runtime_error("not a map expression: " + to_string(*e));
}

}  // namespace

Value resolve_symbol(const std::string& name,
                     const std::map<std::string, Value>& store,
                     const netsim::Packet* pkt) {
  if (pkt != nullptr && name.starts_with("pkt.")) {
    const std::string_view field = std::string_view(name).substr(4);
    if (field == kPayloadField) return Value(Int{0});
    return Value(runtime::get_packet_field(*pkt, field));
  }
  const auto it = store.find(name);
  if (it == store.end()) throw std::out_of_range("unknown symbol " + name);
  return it->second;
}

ConcreteEnv store_env(const std::map<std::string, Value>& store,
                      const netsim::Packet* pkt) {
  ConcreteEnv env;
  env.input_packet = pkt;
  env.var = [&store, pkt](const std::string& name) {
    return resolve_symbol(name, store, pkt);
  };
  env.map_base = [&store](const std::string& name) -> const MapV* {
    const auto it = store.find(name);
    if (it == store.end() || !it->second.is_map()) return nullptr;
    return &it->second.as_map();
  };
  return env;
}

Value eval_concrete(const SymRef& e, const ConcreteEnv& env) {
  switch (e->kind) {
    case SymKind::kConstInt: return Value(e->int_val);
    case SymKind::kConstBool: return Value(e->bool_val);
    case SymKind::kConstStr: return Value(e->str_val);
    case SymKind::kConstTuple: return Value(e->tuple_val);
    case SymKind::kConstList: {
      auto out = std::make_shared<ListV>();
      for (const auto& x : e->operands) {
        out->items.push_back(eval_concrete(x, env));
      }
      return Value(std::move(out));
    }
    case SymKind::kVar: {
      if (e->str_val.starts_with("undef$")) {
        throw std::runtime_error("read of undefined symbol " + e->str_val);
      }
      return env.var(e->str_val);
    }
    case SymKind::kUn: {
      const Value x = eval_concrete(e->operands[0], env);
      if (e->un_op == lang::UnOp::kNeg) {
        return Value(lang::int_ops::neg(as_int(x)));
      }
      return Value(!as_bool(x));
    }
    case SymKind::kBin: {
      using lang::BinOp;
      if (e->bin_op == BinOp::kAnd) {
        return Value(as_bool(eval_concrete(e->operands[0], env)) &&
                     as_bool(eval_concrete(e->operands[1], env)));
      }
      if (e->bin_op == BinOp::kOr) {
        return Value(as_bool(eval_concrete(e->operands[0], env)) ||
                     as_bool(eval_concrete(e->operands[1], env)));
      }
      const Value l = eval_concrete(e->operands[0], env);
      const Value r = eval_concrete(e->operands[1], env);
      switch (e->bin_op) {
        case BinOp::kEq: return Value(runtime::value_eq(l, r));
        case BinOp::kNe: return Value(!runtime::value_eq(l, r));
        default: break;
      }
      const BinOp op = e->bin_op;
      const Int a = as_int(l);
      const Int b = as_int(r);
      if (const auto v = lang::int_ops::compare(op, a, b)) return Value(*v);
      if (const auto v = lang::int_ops::apply(op, a, b)) return Value(*v);
      if (op == BinOp::kDiv) throw std::runtime_error("division by zero");
      if (op == BinOp::kMod) throw std::runtime_error("modulo by zero");
      throw std::runtime_error("unhandled binary op in concrete eval");
    }
    case SymKind::kTupleExpr: {
      Tuple t;
      t.reserve(e->operands.size());
      for (const auto& x : e->operands) {
        t.push_back(as_int(eval_concrete(x, env)));
      }
      return Value(std::move(t));
    }
    case SymKind::kListGet: {
      const Value list = eval_concrete(e->operands[0], env);
      const Int idx = as_int(eval_concrete(e->operands[1], env));
      if (!list.is_list()) throw std::runtime_error("ListGet on non-list");
      const auto& items = list.as_list().items;
      if (idx < 0 || static_cast<std::size_t>(idx) >= items.size()) {
        throw std::runtime_error("list index out of range in model eval");
      }
      return items[static_cast<std::size_t>(idx)];
    }
    case SymKind::kMapBase:
      if (env.map_value && e->str_val != "{}") {
        if (const Value* v = env.map_value(e->str_val)) return *v;
      }
      [[fallthrough]];
    case SymKind::kMapStore: {
      auto out = std::make_shared<MapV>();
      materialize_map(e, env, *out);
      return Value(std::move(out));
    }
    case SymKind::kMapGet: {
      const Value m = eval_concrete(e->operands[0], env);
      const Value k = eval_concrete(e->operands[1], env);
      const auto& items = m.as_map().items;
      const auto it = items.find(runtime::to_key(k));
      if (it == items.end()) {
        throw std::runtime_error("map key not found in model eval");
      }
      return it->second;
    }
    case SymKind::kContains: {
      const Value c = eval_concrete(e->operands[0], env);
      const Value k = eval_concrete(e->operands[1], env);
      if (c.is_map()) {
        return Value(c.as_map().items.count(runtime::to_key(k)) != 0);
      }
      if (c.is_list()) {
        for (const auto& x : c.as_list().items) {
          if (runtime::value_eq(x, k)) return Value(true);
        }
        return Value(false);
      }
      throw std::runtime_error("Contains on non-container");
    }
    case SymKind::kCall: {
      const std::string& fn = e->str_val;
      if (fn == "hash") {
        return Value(runtime::dsl_hash(
            runtime::to_key(eval_concrete(e->operands[0], env))));
      }
      if (fn == "len") {
        const Value x = eval_concrete(e->operands[0], env);
        if (x.is_list()) return Value(static_cast<Int>(x.as_list().items.size()));
        if (x.is_map()) return Value(static_cast<Int>(x.as_map().items.size()));
        if (x.is_tuple()) return Value(static_cast<Int>(x.as_tuple().size()));
        if (x.is_str()) return Value(static_cast<Int>(x.as_str().size()));
        throw std::runtime_error("len() of unsupported value");
      }
      if (fn == "payload_contains") {
        if (env.input_packet == nullptr) {
          throw std::runtime_error("payload predicate needs the input packet");
        }
        const Value s = eval_concrete(e->operands[1], env);
        const auto& pay = env.input_packet->payload;
        const auto& needle = s.as_str();
        if (needle.empty()) return Value(true);
        const auto it =
            std::search(pay.begin(), pay.end(), needle.begin(), needle.end());
        return Value(it != pay.end());
      }
      if (fn == "tuple_get" || fn == "get") {
        const Value base = eval_concrete(e->operands[0], env);
        const Int idx = as_int(eval_concrete(e->operands[1], env));
        if (base.is_tuple()) {
          const auto& t = base.as_tuple();
          if (idx < 0 || static_cast<std::size_t>(idx) >= t.size()) {
            throw std::runtime_error("tuple index out of range");
          }
          return Value(t[static_cast<std::size_t>(idx)]);
        }
        if (base.is_list()) {
          const auto& items = base.as_list().items;
          if (idx < 0 || static_cast<std::size_t>(idx) >= items.size()) {
            throw std::runtime_error("list index out of range");
          }
          return items[static_cast<std::size_t>(idx)];
        }
        throw std::runtime_error("indexing unsupported value");
      }
      if (fn == "list") {
        auto out = std::make_shared<ListV>();
        for (const auto& x : e->operands) {
          out->items.push_back(eval_concrete(x, env));
        }
        return Value(std::move(out));
      }
      throw std::runtime_error("cannot concretely evaluate call '" + fn + "'");
    }
    case SymKind::kPacket:
      throw std::runtime_error("packet compound value in concrete eval");
  }
  throw std::runtime_error("unhandled SymExpr kind");
}

bool eval_concrete_bool(const SymRef& e, const ConcreteEnv& env) {
  return as_bool(eval_concrete(e, env));
}

}  // namespace nfactor::symex
