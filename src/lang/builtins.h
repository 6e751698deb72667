// Builtin function registry, shared by Sema (signature checking), the IR
// lowerer (packet I/O identification — Algorithm 1 keys on PKT_INPUT /
// PKT_OUTPUT calls), the concrete runtime, and the symbolic executor.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "lang/ast.h"

namespace nfactor::lang {

/// Role flags NFactor's analysis cares about. The paper's Algorithm 1
/// locates packet read/write statements via "standard library or system
/// functions" — these flags are that knowledge base.
enum class BuiltinRole : std::uint8_t {
  kPure,       // no side effects (len, hash, ...)
  kPktInput,   // returns a packet read from the wire (recv)
  kPktOutput,  // writes a packet to the wire (send)
  kLog,        // observable only via logs; never output-impacting
  kSocket,     // socket-level op hiding OS state (must be unfolded, §3.2)
  kControl,    // control-plane registration (sniff, spawn)
  kEffect,     // mutates an argument in place (push, pop)
};

struct BuiltinSig {
  std::string name;
  std::vector<Type> params;  // kUnknown = any
  Type ret = Type::kVoid;
  BuiltinRole role = BuiltinRole::kPure;
  bool variadic = false;  // extra args of any type allowed (log)
};

/// Look up a builtin; nullptr when `name` is not a builtin.
const BuiltinSig* find_builtin(const std::string& name);

/// All registered builtins (for docs/tests).
const std::vector<BuiltinSig>& all_builtins();

inline bool is_pkt_output(const std::string& callee) {
  const auto* b = find_builtin(callee);
  return b != nullptr && b->role == BuiltinRole::kPktOutput;
}

inline bool is_pkt_input(const std::string& callee) {
  const auto* b = find_builtin(callee);
  return b != nullptr && b->role == BuiltinRole::kPktInput;
}

}  // namespace nfactor::lang
