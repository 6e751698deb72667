// Concrete evaluation of symbolic expressions: given an input packet,
// a concrete state store, and config values, compute the value of any
// SymExpr the executor can produce. This is what lets the synthesized
// model *run* on real packets (model interpreter) and what closes the
// loop in the §5 accuracy experiment.
#pragma once

#include <functional>
#include <map>
#include <string>

#include "netsim/packet.h"
#include "runtime/value.h"
#include "symex/expr.h"

namespace nfactor::symex {

struct ConcreteEnv {
  /// Value of a named symbol ("pkt.ip_src", "rr_idx", "mode", ...).
  /// Must throw std::out_of_range for unknown names.
  std::function<runtime::Value(const std::string&)> var;

  /// Contents of a named state map (MapBase); nullptr = empty.
  std::function<const runtime::MapV*(const std::string&)> map_base;

  /// Optional zero-copy variant of map_base: the store's own Value for a
  /// named map (nullptr = fall back to map_base). When set, evaluating a
  /// bare MapBase *aliases* the store's map instead of materializing a
  /// copy, turning m[k] / k-in-m from O(|m|) into O(log |m|). Only safe
  /// for callers that treat every evaluated Value as immutable or
  /// deep-copy before mutating — the dataplane engine does; the model
  /// interpreter deliberately keeps copy semantics as the reference.
  std::function<const runtime::Value*(const std::string&)> map_value;

  /// Input packet, needed by uninterpreted payload predicates.
  const netsim::Packet* input_packet = nullptr;
};

/// pkt.__payload: the symbol standing for the input packet's payload.
/// It evaluates to the identity handle 0; payload predicates read
/// ConcreteEnv::input_packet instead.
inline constexpr char kPayloadField[] = "__payload";

/// The value of symbol `name` against a concrete store and input packet:
/// "pkt.<field>" reads `*pkt` through netsim::kPacketFields (an unknown
/// field throws std::invalid_argument), pkt.__payload is 0, and any other
/// name is a store variable (std::out_of_range when absent). Without a
/// packet, pkt.* names are store lookups like any other.
runtime::Value resolve_symbol(
    const std::string& name,
    const std::map<std::string, runtime::Value>& store,
    const netsim::Packet* pkt);

/// An env resolving symbols with resolve_symbol and maps from `store`,
/// with `pkt` as the input packet. It borrows both.
ConcreteEnv store_env(const std::map<std::string, runtime::Value>& store,
                      const netsim::Packet* pkt = nullptr);

/// Evaluate `e` under `env`. Throws std::runtime_error on expressions
/// that cannot be concretized (e.g. undef$ symbols).
runtime::Value eval_concrete(const SymRef& e, const ConcreteEnv& env);

/// Convenience: evaluate a boolean expression.
bool eval_concrete_bool(const SymRef& e, const ConcreteEnv& env);

}  // namespace nfactor::symex
