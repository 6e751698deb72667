// Runtime values of the NF-DSL. Tuples are immutable value types; lists
// and maps have reference semantics (matching the Python-style NF code
// the paper analyzes, where module-level dicts are mutated in place);
// packets are value types mutated through their owning variable.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

#include "netsim/packet.h"

namespace nfactor::runtime {

using Int = std::int64_t;
using Tuple = std::vector<Int>;

struct Value;

struct ListV {
  std::vector<Value> items;
};

struct MapV {
  std::map<Tuple, Value> items;
};

struct Value {
  std::variant<std::monostate, Int, bool, std::string, Tuple,
               std::shared_ptr<ListV>, std::shared_ptr<MapV>, netsim::Packet>
      v;

  Value() = default;
  Value(Int i) : v(i) {}
  Value(bool b) : v(b) {}
  Value(std::string s) : v(std::move(s)) {}
  Value(Tuple t) : v(std::move(t)) {}
  Value(std::shared_ptr<ListV> l) : v(std::move(l)) {}
  Value(std::shared_ptr<MapV> m) : v(std::move(m)) {}
  Value(netsim::Packet p) : v(std::move(p)) {}

  bool is_int() const { return std::holds_alternative<Int>(v); }
  bool is_bool() const { return std::holds_alternative<bool>(v); }
  bool is_str() const { return std::holds_alternative<std::string>(v); }
  bool is_tuple() const { return std::holds_alternative<Tuple>(v); }
  bool is_list() const { return std::holds_alternative<std::shared_ptr<ListV>>(v); }
  bool is_map() const { return std::holds_alternative<std::shared_ptr<MapV>>(v); }
  bool is_packet() const { return std::holds_alternative<netsim::Packet>(v); }
  bool is_unset() const { return std::holds_alternative<std::monostate>(v); }

  Int as_int() const { return std::get<Int>(v); }
  bool as_bool() const { return std::get<bool>(v); }
  const std::string& as_str() const { return std::get<std::string>(v); }
  const Tuple& as_tuple() const { return std::get<Tuple>(v); }
  ListV& as_list() { return *std::get<std::shared_ptr<ListV>>(v); }
  const ListV& as_list() const { return *std::get<std::shared_ptr<ListV>>(v); }
  MapV& as_map() { return *std::get<std::shared_ptr<MapV>>(v); }
  const MapV& as_map() const { return *std::get<std::shared_ptr<MapV>>(v); }
  netsim::Packet& as_packet() { return std::get<netsim::Packet>(v); }
  const netsim::Packet& as_packet() const { return std::get<netsim::Packet>(v); }
};

/// Structural equality (== / != / map-key semantics). Lists/maps compare
/// by contents, packets by field equality.
bool value_eq(const Value& a, const Value& b);

/// Normalize a key value (int or tuple) to the canonical Tuple key form.
Tuple to_key(const Value& v);

/// The DSL's deterministic hash — shared by the concrete runtime and the
/// model interpreter so hash-mode NFs agree between original and model.
Int dsl_hash(const Tuple& t);

std::string to_string(const Value& v);

/// Read a packet header field by DSL field name, through
/// netsim::kPacketFields (unknown names throw std::invalid_argument).
Int get_packet_field(const netsim::Packet& p, std::string_view field);
/// Write a packet header field by DSL field name (read-only fields throw
/// std::invalid_argument; sema normally prevents this).
void set_packet_field(netsim::Packet& p, std::string_view field, Int value);

}  // namespace nfactor::runtime
