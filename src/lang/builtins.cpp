#include "lang/builtins.h"

#include <unordered_map>

namespace nfactor::lang {

namespace {

using T = Type;
using R = BuiltinRole;

std::vector<BuiltinSig> make_builtins() {
  return {
      // Packet I/O — the anchors of Algorithm 1.
      {"recv", {T::kInt}, T::kPacket, R::kPktInput},
      {"send", {T::kPacket, T::kInt}, T::kVoid, R::kPktOutput},

      // Control-plane registration (Fig. 4b callback structure).
      {"sniff", {T::kInt, T::kUnknown}, T::kVoid, R::kControl},
      // Thread spawn (Fig. 4c consumer-producer structure).
      {"spawn", {T::kUnknown}, T::kVoid, R::kControl},

      // Pure helpers.
      {"len", {T::kUnknown}, T::kInt, R::kPure},
      {"hash", {T::kUnknown}, T::kInt, R::kPure},
      // Payload predicate: concrete substring search at runtime,
      // uninterpreted boolean in symbolic execution (snort-style content
      // rules).
      {"payload_contains", {T::kPacket, T::kStr}, T::kBool, R::kPure},

      // Logging — the canonical logVar producer.
      {"log", {T::kUnknown}, T::kVoid, R::kLog, /*variadic=*/true},

      // List mutation (queues in Fig. 4c).
      {"push", {T::kList, T::kUnknown}, T::kVoid, R::kEffect},
      {"pop", {T::kList}, T::kUnknown, R::kEffect},

      // Socket-level ops that hide state in the OS (Fig. 3, Fig. 4d).
      // Programs using these must pass through transform::unfold_sockets
      // before analysis or execution.
      {"sock_listen", {T::kInt}, T::kInt, R::kSocket},
      {"sock_accept", {T::kInt}, T::kInt, R::kSocket},
      {"sock_connect", {T::kInt, T::kInt}, T::kInt, R::kSocket},
      {"sock_recv", {T::kInt}, T::kPacket, R::kSocket},
      {"sock_send", {T::kInt, T::kPacket}, T::kVoid, R::kSocket},
      {"sock_close", {T::kInt}, T::kVoid, R::kSocket},
      {"fork", {}, T::kInt, R::kSocket},
  };
}

}  // namespace

const std::vector<BuiltinSig>& all_builtins() {
  static const std::vector<BuiltinSig> table = make_builtins();
  return table;
}

const BuiltinSig* find_builtin(const std::string& name) {
  static const std::unordered_map<std::string, const BuiltinSig*> index = [] {
    std::unordered_map<std::string, const BuiltinSig*> m;
    for (const auto& b : all_builtins()) m.emplace(b.name, &b);
    return m;
  }();
  const auto it = index.find(name);
  return it == index.end() ? nullptr : it->second;
}

}  // namespace nfactor::lang
