#include "verify/probe.h"

#include <stdexcept>

namespace nfactor::verify {

using symex::SymKind;
using symex::SymRef;

std::optional<std::string> pkt_field_of(const SymRef& e) {
  if (e->kind == SymKind::kVar && e->var_class == symex::VarClass::kPkt &&
      e->str_val.starts_with("pkt.")) {
    return e->str_val.substr(4);
  }
  return std::nullopt;
}

std::optional<runtime::Int> try_const(const SymRef& e,
                                      const symex::ConcreteEnv& env) {
  try {
    const runtime::Value v = symex::eval_concrete(e, env);
    if (v.is_int()) return v.as_int();
    if (v.is_bool()) return v.as_bool() ? 1 : 0;
  } catch (const std::exception&) {
  }
  return std::nullopt;
}

ProbeBuilder::ProbeBuilder(const symex::ConcreteEnv& env) : env_(env) {
  // Neutral default probe.
  probe_.ip_src = 0x0A000009;  // 10.0.0.9
  probe_.ip_dst = 0x03030303;
  probe_.sport = 1234;
  probe_.dport = 80;
  probe_.tcp_flags = netsim::kAck;
}

bool ProbeBuilder::apply(const SymRef& c, bool polarity) {
  if (c->kind == SymKind::kUn && c->un_op == lang::UnOp::kNot) {
    return apply(c->operands[0], !polarity);
  }
  if (c->kind == SymKind::kCall && c->str_val == "payload_contains") {
    const SymRef& needle = c->operands[1];
    if (needle->kind != SymKind::kConstStr) return false;
    if (polarity) {
      probe_.payload.assign(needle->str_val.begin(), needle->str_val.end());
    } else {
      probe_.payload.clear();
    }
    return true;
  }
  if (c->kind != SymKind::kBin) return false;
  using lang::BinOp;
  const BinOp op = c->bin_op;
  const SymRef& a = c->operands[0];
  const SymRef& b = c->operands[1];

  if (op == BinOp::kAnd && polarity) {
    return apply(a, true) && apply(b, true);
  }
  if (op == BinOp::kOr && polarity) {
    return apply(a, true);  // satisfy the first disjunct
  }
  if (op == BinOp::kOr && !polarity) {
    return apply(a, false) && apply(b, false);
  }

  // Flag-mask tests: (pkt.tcp_flags & m) ==/!= 0.
  if ((op == BinOp::kEq || op == BinOp::kNe) &&
      a->kind == SymKind::kBin && a->bin_op == BinOp::kBitAnd) {
    const auto field = pkt_field_of(a->operands[0]);
    const auto mask = try_const(a->operands[1], env_);
    const auto rhs = try_const(b, env_);
    if (field && *field == "tcp_flags" && mask && rhs && *rhs == 0) {
      const bool want_set = (op == BinOp::kNe) == polarity;
      if (want_set) {
        probe_.tcp_flags |= static_cast<std::uint8_t>(*mask);
      } else {
        probe_.tcp_flags &= static_cast<std::uint8_t>(~*mask);
      }
      return true;
    }
    return false;
  }

  // field OP const-side
  auto field = pkt_field_of(a);
  SymRef other = b;
  bool flipped = false;
  if (!field) {
    field = pkt_field_of(b);
    other = a;
    flipped = true;
  }
  if (!field) {
    // Constraint not over the packet (pure config/state residue):
    // verify it holds under the deployed config.
    const auto v = try_const(c, env_);
    return v.has_value() && ((*v != 0) == polarity);
  }
  const auto val = try_const(other, env_);
  if (!val) return false;

  BinOp eff = op;
  if (!polarity) {
    switch (op) {
      case BinOp::kEq: eff = BinOp::kNe; break;
      case BinOp::kNe: eff = BinOp::kEq; break;
      case BinOp::kLt: eff = BinOp::kGe; break;
      case BinOp::kGe: eff = BinOp::kLt; break;
      case BinOp::kGt: eff = BinOp::kLe; break;
      case BinOp::kLe: eff = BinOp::kGt; break;
      default: return false;
    }
  }
  if (flipped) {
    switch (eff) {
      case BinOp::kLt: eff = BinOp::kGt; break;
      case BinOp::kGt: eff = BinOp::kLt; break;
      case BinOp::kLe: eff = BinOp::kGe; break;
      case BinOp::kGe: eff = BinOp::kLe; break;
      default: break;
    }
  }
  switch (eff) {
    case BinOp::kEq: return set_field(*field, *val);
    case BinOp::kNe: return set_field(*field, *val + 1);
    case BinOp::kLt: return set_field(*field, *val - 1);
    case BinOp::kLe: return set_field(*field, *val);
    case BinOp::kGt: return set_field(*field, *val + 1);
    case BinOp::kGe: return set_field(*field, *val);
    default: return false;
  }
}

bool ProbeBuilder::set_field(const std::string& field, runtime::Int v) {
  const netsim::FieldSpec* f = netsim::find_packet_field(field);
  if (f == nullptr) return false;
  switch (f->id) {
    case netsim::FieldId::kInPort:
      probe_.in_port = static_cast<int>(v);
      return true;
    case netsim::FieldId::kLen:
      if (v < 0 || v > 1400) return false;
      probe_.payload.assign(static_cast<std::size_t>(v), 0x61);
      return true;
    default:
      netsim::write_field(probe_, f->id, v);
      return true;
  }
}

}  // namespace nfactor::verify
