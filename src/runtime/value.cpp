#include "runtime/value.h"

#include <sstream>
#include <stdexcept>

namespace nfactor::runtime {

bool value_eq(const Value& a, const Value& b) {
  if (a.v.index() != b.v.index()) return false;
  if (a.is_list()) {
    const auto& la = a.as_list().items;
    const auto& lb = b.as_list().items;
    if (la.size() != lb.size()) return false;
    for (std::size_t i = 0; i < la.size(); ++i) {
      if (!value_eq(la[i], lb[i])) return false;
    }
    return true;
  }
  if (a.is_map()) {
    const auto& ma = a.as_map().items;
    const auto& mb = b.as_map().items;
    if (ma.size() != mb.size()) return false;
    auto ia = ma.begin();
    auto ib = mb.begin();
    for (; ia != ma.end(); ++ia, ++ib) {
      if (ia->first != ib->first || !value_eq(ia->second, ib->second)) {
        return false;
      }
    }
    return true;
  }
  return a.v == b.v;
}

Tuple to_key(const Value& v) {
  if (v.is_int()) return Tuple{v.as_int()};
  if (v.is_bool()) return Tuple{v.as_bool() ? 1 : 0};
  if (v.is_tuple()) return v.as_tuple();
  throw std::invalid_argument("map keys must be ints or tuples, got " +
                              to_string(v));
}

Int dsl_hash(const Tuple& t) {
  // FNV-1a over the elements; masked positive so `hash(x) % n` behaves.
  std::uint64_t h = 1469598103934665603ULL;
  for (const Int x : t) {
    for (int i = 0; i < 8; ++i) {
      h ^= (static_cast<std::uint64_t>(x) >> (i * 8)) & 0xFF;
      h *= 1099511628211ULL;
    }
  }
  return static_cast<Int>(h & 0x7FFFFFFFFFFFFFFFULL);
}

std::string to_string(const Value& v) {
  std::ostringstream os;
  if (v.is_unset()) {
    os << "<unset>";
  } else if (v.is_int()) {
    os << v.as_int();
  } else if (v.is_bool()) {
    os << (v.as_bool() ? "true" : "false");
  } else if (v.is_str()) {
    os << '"' << v.as_str() << '"';
  } else if (v.is_tuple()) {
    os << '(';
    const auto& t = v.as_tuple();
    for (std::size_t i = 0; i < t.size(); ++i) {
      if (i) os << ", ";
      os << t[i];
    }
    os << ')';
  } else if (v.is_list()) {
    os << '[';
    const auto& l = v.as_list().items;
    for (std::size_t i = 0; i < l.size(); ++i) {
      if (i) os << ", ";
      os << to_string(l[i]);
    }
    os << ']';
  } else if (v.is_map()) {
    os << '{';
    bool first = true;
    for (const auto& [k, val] : v.as_map().items) {
      if (!first) os << ", ";
      first = false;
      os << to_string(Value(k)) << ": " << to_string(val);
    }
    os << '}';
  } else if (v.is_packet()) {
    os << netsim::to_string(v.as_packet());
  }
  return os.str();
}

Int get_packet_field(const netsim::Packet& p, std::string_view field) {
  const netsim::FieldSpec* f = netsim::find_packet_field(field);
  if (f == nullptr) {
    throw std::invalid_argument("unknown packet field '" + std::string(field) +
                                "'");
  }
  return netsim::read_field(p, f->id);
}

void set_packet_field(netsim::Packet& p, std::string_view field, Int value) {
  const netsim::FieldSpec* f = netsim::find_packet_field(field);
  if (f == nullptr || !f->writable) {
    throw std::invalid_argument("packet field '" + std::string(field) +
                                "' is not writable");
  }
  netsim::write_field(p, f->id, value);
}

}  // namespace nfactor::runtime
