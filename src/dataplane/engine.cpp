#include "dataplane/engine.h"

#include <algorithm>
#include <cstring>
#include <set>
#include <sstream>
#include <stdexcept>
#include <unordered_map>
#include <utility>

#include "dataplane/threaded.h"
#include "lang/int_ops.h"
#include "obs/obs.h"

namespace nfactor::dataplane {

namespace {

namespace int_ops = lang::int_ops;
using runtime::Int;
using runtime::Value;
using symex::SymKind;
using symex::SymRef;

Int mac_to_int(const netsim::MacAddr& m) {
  Int out = 0;
  for (int i = 0; i < 6; ++i) out = out << 8 | m[static_cast<std::size_t>(i)];
  return out;
}

}  // namespace

std::optional<PacketField> packet_field_from_name(std::string_view name) {
  if (name == "eth_src") return PacketField::kEthSrc;
  if (name == "eth_dst") return PacketField::kEthDst;
  if (name == "eth_type") return PacketField::kEthType;
  if (name == "ip_src") return PacketField::kIpSrc;
  if (name == "ip_dst") return PacketField::kIpDst;
  if (name == "ip_proto") return PacketField::kIpProto;
  if (name == "ip_ttl") return PacketField::kIpTtl;
  if (name == "ip_id") return PacketField::kIpId;
  if (name == "ip_tos") return PacketField::kIpTos;
  if (name == "sport") return PacketField::kSport;
  if (name == "dport") return PacketField::kDport;
  if (name == "tcp_flags") return PacketField::kTcpFlags;
  if (name == "tcp_seq") return PacketField::kTcpSeq;
  if (name == "tcp_ack") return PacketField::kTcpAck;
  if (name == "tcp_win") return PacketField::kTcpWin;
  if (name == "len") return PacketField::kLen;
  if (name == "in_port") return PacketField::kInPort;
  return std::nullopt;
}

runtime::Int read_packet_field(const netsim::Packet& p, PacketField f) {
  switch (f) {
    case PacketField::kEthSrc: return mac_to_int(p.eth_src);
    case PacketField::kEthDst: return mac_to_int(p.eth_dst);
    case PacketField::kEthType: return p.eth_type;
    case PacketField::kIpSrc: return p.ip_src;
    case PacketField::kIpDst: return p.ip_dst;
    case PacketField::kIpProto: return p.ip_proto;
    case PacketField::kIpTtl: return p.ip_ttl;
    case PacketField::kIpId: return p.ip_id;
    case PacketField::kIpTos: return p.ip_tos;
    case PacketField::kSport: return p.sport;
    case PacketField::kDport: return p.dport;
    case PacketField::kTcpFlags: return p.tcp_flags;
    case PacketField::kTcpSeq: return p.tcp_seq;
    case PacketField::kTcpAck: return p.tcp_ack;
    case PacketField::kTcpWin: return p.tcp_win;
    case PacketField::kLen: return static_cast<Int>(p.payload.size());
    case PacketField::kInPort: return p.in_port;
  }
  throw std::invalid_argument("unhandled PacketField");
}

// ---------------------------------------------------------------------------
// Config specialization
// ---------------------------------------------------------------------------

namespace {

/// Coarse value type of a provably *total* (throw-free under
/// eval_concrete) expression; kUnsafe when evaluation might throw.
/// Gates config substitution: substituting + rebuilding through the
/// folding builders is value-preserving only for total expressions —
/// a fold like `x || true -> true` would otherwise erase a throw the
/// interpreter still performs.
enum class SafeTy : std::uint8_t {
  kUnsafe, kScalar, kStr, kTuple, kList, kMap,
};

struct Classifier {
  const std::map<std::string, Value>* bindings;
  std::unordered_map<const symex::SymExpr*, SafeTy> memo;

  SafeTy run(const SymRef& e) {
    if (const auto it = memo.find(e.get()); it != memo.end()) return it->second;
    const SafeTy t = run_uncached(e);
    memo.emplace(e.get(), t);
    return t;
  }

  SafeTy run_uncached(const SymRef& e) {  // NOLINT(readability-function-cognitive-complexity)
    using lang::BinOp;
    switch (e->kind) {
      case SymKind::kConstInt:
      case SymKind::kConstBool:
        return SafeTy::kScalar;
      case SymKind::kConstStr:
        return SafeTy::kStr;
      case SymKind::kConstTuple:
        return SafeTy::kTuple;
      case SymKind::kConstList: {
        for (const auto& x : e->operands) {
          if (run(x) == SafeTy::kUnsafe) return SafeTy::kUnsafe;
        }
        return SafeTy::kList;
      }
      case SymKind::kVar: {
        const std::string& n = e->str_val;
        if (n.starts_with("undef$")) return SafeTy::kUnsafe;
        if (n.starts_with("pkt.")) {
          const std::string_view field = std::string_view(n).substr(4);
          if (field == "__payload") return SafeTy::kScalar;
          return packet_field_from_name(field).has_value() ? SafeTy::kScalar
                                                           : SafeTy::kUnsafe;
        }
        // A store symbol is total only when we can see it is present
        // (it stays present: the model only overwrites state vars).
        if (bindings == nullptr) return SafeTy::kUnsafe;
        const auto it = bindings->find(n);
        if (it == bindings->end()) return SafeTy::kUnsafe;
        const Value& v = it->second;
        if (v.is_int() || v.is_bool()) return SafeTy::kScalar;
        if (v.is_str()) return SafeTy::kStr;
        if (v.is_tuple()) return SafeTy::kTuple;
        if (v.is_list()) return SafeTy::kList;
        if (v.is_map()) return SafeTy::kMap;
        return SafeTy::kUnsafe;
      }
      case SymKind::kUn:
        return run(e->operands[0]) == SafeTy::kScalar ? SafeTy::kScalar
                                                      : SafeTy::kUnsafe;
      case SymKind::kBin: {
        const SafeTy a = run(e->operands[0]);
        const SafeTy b = run(e->operands[1]);
        switch (e->bin_op) {
          case BinOp::kEq:
          case BinOp::kNe:
            // value_eq is total: any two evaluable values compare.
            return (a != SafeTy::kUnsafe && b != SafeTy::kUnsafe)
                       ? SafeTy::kScalar
                       : SafeTy::kUnsafe;
          case BinOp::kDiv:
          case BinOp::kMod:
            return (a == SafeTy::kScalar &&
                    symex::is_const_int(e->operands[1]) &&
                    e->operands[1]->int_val != 0)
                       ? SafeTy::kScalar
                       : SafeTy::kUnsafe;
          case BinOp::kIn:
            return SafeTy::kUnsafe;  // lowered to kContains; never seen
          default:
            return (a == SafeTy::kScalar && b == SafeTy::kScalar)
                       ? SafeTy::kScalar
                       : SafeTy::kUnsafe;
        }
      }
      case SymKind::kTupleExpr: {
        for (const auto& x : e->operands) {
          if (run(x) != SafeTy::kScalar) return SafeTy::kUnsafe;
        }
        return SafeTy::kTuple;
      }
      case SymKind::kListGet:
        return SafeTy::kUnsafe;  // index range throws
      case SymKind::kMapBase:
        return SafeTy::kMap;  // absent base reads as empty
      case SymKind::kMapStore: {
        const SafeTy k = run(e->operands[1]);
        return (run(e->operands[0]) == SafeTy::kMap &&
                (k == SafeTy::kScalar || k == SafeTy::kTuple) &&
                run(e->operands[2]) != SafeTy::kUnsafe)
                   ? SafeTy::kMap
                   : SafeTy::kUnsafe;
      }
      case SymKind::kMapGet:
        return SafeTy::kUnsafe;  // absent key throws
      case SymKind::kContains: {
        const SafeTy c = run(e->operands[0]);
        const SafeTy k = run(e->operands[1]);
        if (c == SafeTy::kMap) {
          return (k == SafeTy::kScalar || k == SafeTy::kTuple)
                     ? SafeTy::kScalar
                     : SafeTy::kUnsafe;
        }
        if (c == SafeTy::kList) {
          return k != SafeTy::kUnsafe ? SafeTy::kScalar : SafeTy::kUnsafe;
        }
        return SafeTy::kUnsafe;
      }
      case SymKind::kCall: {
        const std::string& fn = e->str_val;
        if (fn == "hash") {
          const SafeTy a = run(e->operands[0]);
          return (a == SafeTy::kScalar || a == SafeTy::kTuple)
                     ? SafeTy::kScalar
                     : SafeTy::kUnsafe;
        }
        if (fn == "len") {
          const SafeTy a = run(e->operands[0]);
          return (a == SafeTy::kStr || a == SafeTy::kTuple ||
                  a == SafeTy::kList || a == SafeTy::kMap)
                     ? SafeTy::kScalar
                     : SafeTy::kUnsafe;
        }
        if (fn == "payload_contains") {
          // eval only touches operand 1 (the needle) and the packet.
          return e->operands.size() == 2 && run(e->operands[1]) == SafeTy::kStr
                     ? SafeTy::kScalar
                     : SafeTy::kUnsafe;
        }
        if (fn == "list") {
          for (const auto& x : e->operands) {
            if (run(x) == SafeTy::kUnsafe) return SafeTy::kUnsafe;
          }
          return SafeTy::kList;
        }
        return SafeTy::kUnsafe;  // tuple_get/get range-throw; unknown calls
      }
      case SymKind::kPacket:
        return SafeTy::kUnsafe;
    }
    return SafeTy::kUnsafe;
  }
};

SymRef value_to_sym(const Value& v) {
  if (v.is_int()) return symex::make_int(v.as_int());
  if (v.is_bool()) return symex::make_bool(v.as_bool());
  if (v.is_str()) return symex::make_str(v.as_str());
  if (v.is_tuple()) return symex::make_tuple_const(v.as_tuple());
  if (v.is_list()) {
    std::vector<SymRef> elems;
    elems.reserve(v.as_list().items.size());
    for (const Value& x : v.as_list().items) {
      SymRef e = value_to_sym(x);
      if (e == nullptr) return nullptr;
      elems.push_back(std::move(e));
    }
    return symex::make_list_const(std::move(elems));
  }
  return nullptr;  // maps stay symbolic: MapBase already reads the store
}

struct Specializer {
  std::map<std::string, SymRef> subst;
  Classifier classify;

  SymRef operator()(const SymRef& e) {
    if (subst.empty()) return e;
    // Only rewrite expressions that mention a substituted symbol and
    // are provably total (see Classifier) — everything else keeps its
    // original shape and the generic evaluator's exact throw behavior.
    std::map<std::string, symex::VarClass> vars;
    symex::collect_vars(e, vars);
    bool mentions = false;
    for (const auto& [name, cls] : vars) {
      (void)cls;
      if (subst.count(name) != 0) {
        mentions = true;
        break;
      }
    }
    if (!mentions) return e;
    if (classify.run(e) == SafeTy::kUnsafe) return e;
    try {
      return symex::substitute(e, subst);
    } catch (const std::exception&) {
      return e;
    }
  }
};

// ---------------------------------------------------------------------------
// Stack-program compilation
// ---------------------------------------------------------------------------

constexpr int kMaxStackDepth = 64;
constexpr std::size_t kMaxProgramOps = 256;

/// Result type of a compiled subexpression: Bool values live on the
/// stack as 0/1, and the tag tells us what eval_concrete would have
/// wrapped them in (Value(bool) vs Value(Int)) — which matters for
/// Eq/Ne (variant-strict) and for action slots (as_int is
/// std::get<Int>, so a bool-producing expression must stay generic).
enum class Ty : std::uint8_t { kInt, kBool };

struct ProgCompiler {
  std::vector<Needle>* needles;

  Program compile_pred(const SymRef& e) { return compile(e, /*want_int=*/false); }
  Program compile_int(const SymRef& e) { return compile(e, /*want_int=*/true); }

 private:
  Program compile(const SymRef& e, bool want_int) {
    Program p;
    int depth = 0;
    int max_depth = 0;
    const auto ty = emit(e, p.ops, depth, max_depth);
    if (!ty.has_value() || max_depth > kMaxStackDepth ||
        p.ops.size() > kMaxProgramOps || (want_int && *ty != Ty::kInt)) {
      p.ops.clear();
    }
    return p;
  }

  std::optional<Ty> emit(const SymRef& e, std::vector<Op>& ops, int& depth,
                         int& max_depth) {  // NOLINT(misc-no-recursion)
    using lang::BinOp;
    const auto push = [&](OpCode code, Int imm) {
      ops.push_back(Op{code, imm});
      max_depth = std::max(max_depth, ++depth);
    };
    const auto binary = [&](OpCode code) {
      ops.push_back(Op{code, 0});
      --depth;
    };
    switch (e->kind) {
      case SymKind::kConstInt:
        push(OpCode::kPushConst, e->int_val);
        return Ty::kInt;
      case SymKind::kConstBool:
        push(OpCode::kPushConst, e->bool_val ? 1 : 0);
        return Ty::kBool;
      case SymKind::kVar: {
        if (!e->str_val.starts_with("pkt.")) return std::nullopt;
        const std::string_view field = std::string_view(e->str_val).substr(4);
        if (field == "__payload") {
          push(OpCode::kPushConst, 0);  // identity handle, same as the env
          return Ty::kInt;
        }
        const auto f = packet_field_from_name(field);
        if (!f.has_value()) return std::nullopt;
        push(OpCode::kPushField, static_cast<Int>(*f));
        return Ty::kInt;
      }
      case SymKind::kUn: {
        if (!emit(e->operands[0], ops, depth, max_depth).has_value()) {
          return std::nullopt;
        }
        if (e->un_op == lang::UnOp::kNeg) {
          ops.push_back(Op{OpCode::kNeg, 0});
          return Ty::kInt;
        }
        ops.push_back(Op{OpCode::kNot, 0});
        return Ty::kBool;
      }
      case SymKind::kBin: {
        // Div/Mod throw on a zero divisor; compile only the provably
        // nonzero-constant case so programs stay total.
        if (e->bin_op == BinOp::kDiv || e->bin_op == BinOp::kMod) {
          if (!symex::is_const_int(e->operands[1]) ||
              e->operands[1]->int_val == 0) {
            return std::nullopt;
          }
        }
        const auto a = emit(e->operands[0], ops, depth, max_depth);
        if (!a.has_value()) return std::nullopt;
        const auto b = emit(e->operands[1], ops, depth, max_depth);
        if (!b.has_value()) return std::nullopt;
        switch (e->bin_op) {
          case BinOp::kEq:
          case BinOp::kNe:
            // value_eq is variant-strict: Value(true) != Value(1). Only
            // type-matched operands reduce to an integer compare.
            if (*a != *b) return std::nullopt;
            binary(e->bin_op == BinOp::kEq ? OpCode::kEq : OpCode::kNe);
            return Ty::kBool;
          case BinOp::kLt: binary(OpCode::kLt); return Ty::kBool;
          case BinOp::kLe: binary(OpCode::kLe); return Ty::kBool;
          case BinOp::kGt: binary(OpCode::kGt); return Ty::kBool;
          case BinOp::kGe: binary(OpCode::kGe); return Ty::kBool;
          case BinOp::kAnd: binary(OpCode::kAnd); return Ty::kBool;
          case BinOp::kOr: binary(OpCode::kOr); return Ty::kBool;
          case BinOp::kAdd: binary(OpCode::kAdd); return Ty::kInt;
          case BinOp::kSub: binary(OpCode::kSub); return Ty::kInt;
          case BinOp::kMul: binary(OpCode::kMul); return Ty::kInt;
          case BinOp::kDiv: binary(OpCode::kDiv); return Ty::kInt;
          case BinOp::kMod: binary(OpCode::kMod); return Ty::kInt;
          case BinOp::kBitAnd: binary(OpCode::kBitAnd); return Ty::kInt;
          case BinOp::kBitOr: binary(OpCode::kBitOr); return Ty::kInt;
          case BinOp::kBitXor: binary(OpCode::kBitXor); return Ty::kInt;
          case BinOp::kShl: binary(OpCode::kShl); return Ty::kInt;
          case BinOp::kShr: binary(OpCode::kShr); return Ty::kInt;
          case BinOp::kIn: return std::nullopt;
        }
        return std::nullopt;
      }
      case SymKind::kCall: {
        if (e->str_val != "payload_contains" || e->operands.size() != 2 ||
            e->operands[1]->kind != SymKind::kConstStr) {
          return std::nullopt;
        }
        const std::string& needle = e->operands[1]->str_val;
        const auto it =
            std::find_if(needles->begin(), needles->end(),
                         [&](const Needle& n) { return n.text == needle; });
        std::size_t idx = static_cast<std::size_t>(it - needles->begin());
        if (it == needles->end()) {
          idx = needles->size();
          needles->push_back(make_needle(needle));
        }
        push(OpCode::kPayloadContains, static_cast<Int>(idx));
        return Ty::kBool;
      }
      default:
        return std::nullopt;
    }
  }
};

CompiledLeaf compile_leaf(const model::ModelEntry& e, int entry,
                          Specializer& spec, ProgCompiler& pc) {
  CompiledLeaf leaf;
  leaf.entry = entry;
  for (const auto& a : e.flow_action) {
    CompiledSend send;
    for (const auto& [field, expr] : a.rewrites) {
      CompiledWrite w;
      w.field = field;
      w.expr = spec(expr);
      w.prog = pc.compile_int(w.expr);
      send.writes.push_back(std::move(w));
    }
    send.port_expr = spec(a.port);
    send.port_prog = pc.compile_int(send.port_expr);
    if (send.port_prog.ops.size() == 1 &&
        send.port_prog.ops[0].code == OpCode::kPushConst) {
      send.const_port = true;
      send.port_const = send.port_prog.ops[0].imm;
    }
    leaf.sends.push_back(std::move(send));
  }
  for (const auto& [var, expr] : e.state_action) {
    CompiledUpdate u;
    u.var = var;
    u.expr = spec(expr);
    u.prog = pc.compile_int(u.expr);
    // Single-level self-store: var := var{key -> val}. The engine sets
    // one map slot in place instead of materializing a full copy.
    if (u.expr->kind == symex::SymKind::kMapStore &&
        u.expr->operands[0]->kind == symex::SymKind::kMapBase &&
        u.expr->operands[0]->str_val == var) {
      u.map_set = true;
      u.key_expr = u.expr->operands[1];
      u.val_expr = u.expr->operands[2];
      u.val_prog = pc.compile_int(u.val_expr);
    }
    leaf.updates.push_back(std::move(u));
  }
  return leaf;
}

}  // namespace

// ---------------------------------------------------------------------------
// compile()
// ---------------------------------------------------------------------------

CompiledTable compile(const model::Model& m, const CompileOptions& opts) {
  OBS_SPAN("dataplane.compile");
  CompiledTable t;
  t.nf_name = m.nf_name;

  Specializer spec{{}, Classifier{opts.bindings, {}}};
  if (opts.bindings != nullptr) {
    for (const std::string& name : m.cfg_vars) {
      const auto it = opts.bindings->find(name);
      if (it == opts.bindings->end()) continue;
      if (SymRef v = value_to_sym(it->second)) {
        spec.subst.emplace(name, std::move(v));
      }
    }
  }

  std::vector<FddRule> rules;
  rules.reserve(m.entries.size());
  for (std::size_t i = 0; i < m.entries.size(); ++i) {
    const model::ModelEntry& e = m.entries[i];
    FddRule r;
    r.entry = static_cast<int>(i);
    bool feasible = true;
    const auto add = [&](const SymRef& c) {
      if (!feasible) return;
      SymRef s = spec(c);
      if (symex::is_const_bool(s)) {
        // Specialization is gated on totality, so a constant verdict is
        // exactly what the interpreter would compute for this packet-
        // independent atom: true -> drop the test, false -> dead entry.
        feasible = s->bool_val;
        return;
      }
      r.atoms.push_back(std::move(s));
    };
    for (const auto& c : e.config_match) add(c);
    for (const auto& c : e.flow_match) add(c);
    for (const auto& c : e.state_match) add(c);
    if (feasible) rules.push_back(std::move(r));
  }

  const Fdd fdd = build_fdd(rules, opts.fdd);

  ProgCompiler pc{&t.needles};
  t.preds.reserve(fdd.atoms.size());
  for (const SymRef& a : fdd.atoms) {
    CompiledPred p;
    p.expr = a;
    p.prog = pc.compile_pred(a);
    if (p.prog.compiled()) ++t.compiled_preds;
    t.preds.push_back(std::move(p));
  }

  // Leaves: slot 0 is the default drop; matched entries follow in
  // ascending entry order (deterministic, and the dump reads naturally).
  std::set<int> used;
  const auto note = [&](FddRef r) {
    if (is_leaf(r) && leaf_entry(r) >= 0) used.insert(leaf_entry(r));
  };
  note(fdd.root);
  for (const FddNode& n : fdd.nodes) {
    note(n.on_true);
    note(n.on_false);
    note(n.on_except);
  }
  std::map<int, std::int32_t> leaf_of;
  t.leaves.push_back(CompiledLeaf{});
  leaf_of[-1] = 0;
  for (const int e : used) {
    leaf_of[e] = static_cast<std::int32_t>(t.leaves.size());
    t.leaves.push_back(
        compile_leaf(m.entries[static_cast<std::size_t>(e)], e, spec, pc));
  }

  const auto xlate = [&](FddRef r) -> std::int32_t {
    return is_leaf(r) ? ~leaf_of.at(leaf_entry(r)) : r;
  };
  t.nodes.reserve(fdd.nodes.size());
  for (const FddNode& n : fdd.nodes) {
    t.nodes.push_back(FlatNode{n.atom, xlate(n.on_true), xlate(n.on_false),
                               xlate(n.on_except)});
  }
  t.root = xlate(fdd.root);
  t.stats = fdd.stats;
  OBS_GAUGE("dataplane.compile.nodes", t.nodes.size());
  OBS_GAUGE("dataplane.compile.compiled_preds", t.compiled_preds);
  return t;
}

// ---------------------------------------------------------------------------
// to_text()
// ---------------------------------------------------------------------------

std::string CompiledTable::to_text() const {
  std::ostringstream os;
  os << "# nfactor dataplane table v1\n";
  os << "nf: " << nf_name << "\n";
  os << "rules: " << stats.rules << " (infeasible pruned: " << stats.infeasible
     << ")\n";
  os << "atoms: " << stats.atoms
     << " (complement-unified: " << stats.complement_pairs << ")\n";
  os << "nodes: " << nodes.size() << " (memo hits: " << stats.memo_hits
     << ", cons hits: " << stats.cons_hits << ")\n";
  os << "leaves: " << leaves.size() << "\n";
  os << "compiled-preds: " << compiled_preds << "/" << preds.size() << "\n";
  const auto edge = [](std::int32_t r) {
    return r >= 0 ? "n" + std::to_string(r) : "L" + std::to_string(~r);
  };
  if (!needles.empty()) {
    os << "needles:\n";
    for (std::size_t i = 0; i < needles.size(); ++i) {
      os << "  s" << i << ": \"" << needles[i].text << "\"\n";
    }
  }
  os << "preds:\n";
  for (std::size_t i = 0; i < preds.size(); ++i) {
    const char* tag = preds[i].prog.compiled() ? "prog" : "gen ";
    os << "  p" << i << " [" << tag << "] " << symex::to_string(preds[i].expr)
       << "\n";
  }
  os << "nodes (root = " << edge(root) << "):\n";
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    const FlatNode& n = nodes[i];
    os << "  n" << i << ": p" << n.pred << " -> t:" << edge(n.on_true)
       << " f:" << edge(n.on_false) << " !:" << edge(n.on_except) << "\n";
  }
  os << "leaves:\n";
  for (std::size_t i = 0; i < leaves.size(); ++i) {
    const CompiledLeaf& l = leaves[i];
    os << "  L" << i << ": ";
    if (l.entry < 0) {
      os << "drop\n";
      continue;
    }
    os << "entry " << l.entry << "\n";
    for (const CompiledSend& s : l.sends) {
      os << "      send -> port " << symex::to_string(s.port_expr)
         << (s.port_prog.compiled() ? "" : " [gen]") << "\n";
      for (const CompiledWrite& w : s.writes) {
        os << "        set " << w.field << " := " << symex::to_string(w.expr)
           << (w.prog.compiled() ? "" : " [gen]") << "\n";
      }
    }
    for (const CompiledUpdate& u : l.updates) {
      os << "      state " << u.var << " := " << symex::to_string(u.expr);
      if (u.map_set) {
        os << " [set]";
      } else if (!u.prog.compiled()) {
        os << " [gen]";
      }
      os << "\n";
    }
  }
  return os.str();
}

// ---------------------------------------------------------------------------
// DataplaneEngine
// ---------------------------------------------------------------------------

namespace {

/// Containers in a Value are shared_ptrs; a caller's store (and any
/// ModelInterpreter built from it) may alias them. The engine mutates
/// its maps in place (CompiledUpdate::map_set), so it must own every
/// container outright.
Value deep_copy_value(const Value& v);

/// A Value headed for store_ must not alias any store_ container
/// (env_.map_value hands out aliases; so does a bare-variable read).
/// Scalars pass through untouched.
Value own(Value v) {
  if (v.is_map() || v.is_list()) return deep_copy_value(v);
  return v;
}

Value deep_copy_value(const Value& v) {
  if (v.is_map()) {
    auto m = std::make_shared<runtime::MapV>();
    for (const auto& [k, mv] : v.as_map().items) {
      m->items.emplace(k, deep_copy_value(mv));
    }
    return Value(std::move(m));
  }
  if (v.is_list()) {
    auto l = std::make_shared<runtime::ListV>();
    l->items.reserve(v.as_list().items.size());
    for (const auto& lv : v.as_list().items) {
      l->items.push_back(deep_copy_value(lv));
    }
    return Value(std::move(l));
  }
  return v;
}

}  // namespace

DataplaneEngine::DataplaneEngine(const CompiledTable& table,
                                 std::map<std::string, runtime::Value> store,
                                 EngineOptions /*opts*/)
    : table_(table),
      store_(std::move(store)),
      threaded_(std::make_unique<ThreadedCode>(lower_threaded(table))) {
  for (auto& [name, v] : store_) v = deep_copy_value(v);
  // One environment for the engine's whole life: the closures chase
  // cur_ / store_ through `this`, so per-packet setup is two pointer
  // stores instead of the interpreter's per-entry std::function builds.
  env_.var = [this](const std::string& name) -> Value {
    if (name.starts_with("pkt.")) {
      const std::string field = name.substr(4);
      if (field == "__payload") {
        return Value(static_cast<Int>(0));  // identity handle
      }
      return Value(runtime::get_packet_field(*cur_, field));
    }
    const auto it = store_.find(name);
    if (it == store_.end()) throw std::out_of_range("unknown symbol " + name);
    return it->second;
  };
  env_.map_base = [this](const std::string& name) -> const runtime::MapV* {
    const auto it = store_.find(name);
    if (it == store_.end() || !it->second.is_map()) return nullptr;
    return &it->second.as_map();
  };
  // Zero-copy map reads: m[k] and k-in-m alias the engine's map instead
  // of materializing a copy per evaluation. Everything staged back into
  // store_ is deep-copied first (apply_leaf), keeping the invariant that
  // each store_ container is reachable only through its own variable.
  env_.map_value = [this](const std::string& name) -> const Value* {
    const auto it = store_.find(name);
    if (it == store_.end() || !it->second.is_map()) return nullptr;
    return &it->second;
  };
}

DataplaneEngine::~DataplaneEngine() = default;  // ThreadedCode complete here

const runtime::Value* DataplaneEngine::state(const std::string& name) const {
  const auto it = store_.find(name);
  return it == store_.end() ? nullptr : &it->second;
}

void DataplaneEngine::set_state(const std::string& name, runtime::Value v) {
  store_[name] = deep_copy_value(v);
}

// ---------------------------------------------------------------------------
// Payload scan
// ---------------------------------------------------------------------------

Needle make_needle(std::string text) {
  Needle n;
  n.text = std::move(text);
  n.use_bmh = n.text.size() >= kBmhMinNeedle;
  // Horspool shift table: on a mismatch, shift by the distance from the
  // haystack byte under the needle's last position to that byte's
  // rightmost occurrence in needle[0..len-2]; bytes not in the needle
  // shift a full needle length. DSL string literals have no length
  // limit, so each shift is clamped to the uint8 range: a shorter shift
  // never skips a match, while a wrapped one (256 -> 0) would stall the
  // scan forever. Built even below the use_bmh threshold — every shift
  // is >= 1, so scan_bmh terminates on any Needle this function returns
  // (the payload-scan microbench drives it across the whole length
  // range).
  const std::size_t len = n.text.size();
  const auto shift = [](std::size_t d) {
    return static_cast<std::uint8_t>(std::min<std::size_t>(d, 255));
  };
  n.skip.fill(shift(len));
  for (std::size_t i = 0; i + 1 < len; ++i) {
    n.skip[static_cast<std::uint8_t>(n.text[i])] = shift(len - 1 - i);
  }
  return n;
}

// scan_memchr_hop / scan_bmh / scan_adaptive / payload_contains are
// defined inline in engine.h so their callers inline them.

runtime::Int DataplaneEngine::run_program(const Program& prog,
                                          const netsim::Packet& in) const {
  Int st[kMaxStackDepth];
  int sp = 0;
  // Pops the right operand and replaces the left with f(left, right).
  const auto binary = [&](auto f) {
    --sp;
    st[sp - 1] = f(st[sp - 1], st[sp]);
  };
  for (const Op& op : prog.ops) {
    switch (op.code) {
      case OpCode::kPushConst: st[sp++] = op.imm; break;
      case OpCode::kPushField:
        st[sp++] = read_packet_field(in, static_cast<PacketField>(op.imm));
        break;
      case OpCode::kEq: binary(int_ops::eq); break;
      case OpCode::kNe: binary(int_ops::ne); break;
      case OpCode::kLt: binary(int_ops::lt); break;
      case OpCode::kLe: binary(int_ops::le); break;
      case OpCode::kGt: binary(int_ops::gt); break;
      case OpCode::kGe: binary(int_ops::ge); break;
      case OpCode::kAdd: binary(int_ops::add); break;
      case OpCode::kSub: binary(int_ops::sub); break;
      case OpCode::kMul: binary(int_ops::mul); break;
      case OpCode::kDiv: binary(int_ops::div); break;
      case OpCode::kMod: binary(int_ops::mod); break;
      case OpCode::kBitAnd: binary(int_ops::bit_and); break;
      case OpCode::kBitOr: binary(int_ops::bit_or); break;
      case OpCode::kBitXor: binary(int_ops::bit_xor); break;
      case OpCode::kShl: binary(int_ops::shl); break;
      case OpCode::kShr: binary(int_ops::shr); break;
      case OpCode::kAnd:
        --sp;
        st[sp - 1] = (st[sp - 1] != 0 && st[sp] != 0) ? 1 : 0;
        break;
      case OpCode::kOr:
        --sp;
        st[sp - 1] = (st[sp - 1] != 0 || st[sp] != 0) ? 1 : 0;
        break;
      case OpCode::kNot: st[sp - 1] = st[sp - 1] == 0 ? 1 : 0; break;
      case OpCode::kNeg: st[sp - 1] = int_ops::neg(st[sp - 1]); break;
      case OpCode::kPayloadContains:
        st[sp++] = payload_contains(
                       in.payload,
                       table_.needles[static_cast<std::size_t>(op.imm)])
                       ? 1
                       : 0;
        break;
    }
  }
  return st[0];
}

void DataplaneEngine::apply_writes(netsim::Packet& p, const CompiledSend& s,
                                   const netsim::Packet& in) {
  for (const CompiledWrite& w : s.writes) {
    const Int v = w.prog.compiled()
                      ? run_program(w.prog, in)
                      : symex::eval_concrete(w.expr, env_).as_int();
    runtime::set_packet_field(p, w.field, v);
  }
}

runtime::Int DataplaneEngine::eval_port(const CompiledSend& s,
                                        const netsim::Packet& in) {
  return s.port_prog.compiled()
             ? run_program(s.port_prog, in)
             : symex::eval_concrete(s.port_expr, env_).as_int();
}

void DataplaneEngine::apply_leaf(const CompiledLeaf& leaf,
                                 const netsim::Packet& in, std::int32_t src,
                                 BatchOutput& out) {
  for (const CompiledSend& s : leaf.sends) {
    // Overwrite a retired slot: the packet assignment reuses the
    // slot's payload buffer, so the steady state allocates nothing.
    BatchOutput::Send& slot = out.next_slot();
    if (s.writes.empty()) {
      slot.view_ = &in;  // unmodified forward: borrow, don't copy
    } else {
      slot.view_ = nullptr;
      slot.owned_ = in;
      apply_writes(slot.owned_, s, in);
    }
    slot.port = static_cast<int>(s.const_port ? s.port_const
                                              : eval_port(s, in));
    slot.src = src;
    ++out.used_;  // commit only once the slot is fully valid
  }
  if (!leaf.updates.empty()) {
    // Evaluate every RHS against the pre-state, then commit — the same
    // atomic-transition rule as ModelInterpreter::process. Map-set
    // updates stage (slot, key, val) and write that one slot at commit;
    // the fallback stages a whole replacement Value. A throw anywhere in
    // the staging phase leaves the state untouched, exactly like the
    // interpreter's pre-commit evaluation.
    struct Staged {
      const std::string* var;
      runtime::MapV* map;  // non-null: in-place key -> val into this map
      runtime::Tuple key;
      Value val;
    };
    std::vector<Staged> staged;
    staged.reserve(leaf.updates.size());
    for (const CompiledUpdate& u : leaf.updates) {
      // No store_ insertion here: other RHS in this entry must see the
      // pre-state, including a variable's absence. (state_action is
      // keyed by variable, so at most one update targets each slot and
      // the MapV* stays valid through commit.)
      const auto it = store_.find(u.var);
      if (u.map_set && it != store_.end() && it->second.is_map()) {
        // materialize_map evaluates base, then key, then val; the base
        // is this very map, so only key/val remain.
        runtime::Tuple key =
            runtime::to_key(symex::eval_concrete(u.key_expr, env_));
        Value val = u.val_prog.compiled()
                        ? Value(run_program(u.val_prog, in))
                        : own(symex::eval_concrete(u.val_expr, env_));
        staged.push_back(Staged{&u.var, &it->second.as_map(), std::move(key),
                                std::move(val)});
        continue;
      }
      staged.push_back(Staged{&u.var, nullptr, {},
                              u.prog.compiled()
                                  ? Value(run_program(u.prog, in))
                                  : own(symex::eval_concrete(u.expr, env_))});
    }
    for (Staged& s : staged) {
      if (s.map != nullptr) {
        s.map->items.insert_or_assign(std::move(s.key), std::move(s.val));
      } else {
        store_[*s.var] = std::move(s.val);
      }
    }
  }
}

model::ModelOutput DataplaneEngine::process(const netsim::Packet& in) {
  // A one-packet batch: process() runs the same executor as
  // execute_batch, then copies the sends out of the scratch output.
  one_.clear();
  execute_batch({&in, 1}, one_);
  model::ModelOutput out;
  out.matched_entry = one_.matched[0];
  for (const BatchOutput::Send& send : one_.sends()) {
    out.sent.emplace_back(send.packet(), send.port);
  }
  return out;
}

}  // namespace nfactor::dataplane
