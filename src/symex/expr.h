// Symbolic expressions for the KLEE-style executor. Immutable,
// hash-consed DAG nodes shared via shared_ptr; builders constant-fold
// eagerly so fully concrete programs never touch the solver, and every
// builder interns its result (src/symex/intern.h) so structurally equal
// expressions are pointer-identical and carry a precomputed 64-bit
// structural fingerprint. Structural equality is `struct_eq` — a pointer
// compare on the hot path — and the rendered canonical key() string is
// retained for rendering, goldens, and cross-run-stable artifacts only.
//
// State maps are modeled as store chains (MapBase -> MapStore*), and map
// membership as Contains atoms — which is exactly what turns
// "cs_ftpl not in f2b_nat" into a *state match* in the extracted model.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "lang/ast.h"

namespace nfactor::symex {

using Int = std::int64_t;

enum class SymKind : std::uint8_t {
  kConstInt,
  kConstBool,
  kConstStr,
  kConstTuple,  // fully concrete tuple
  kConstList,   // concrete list of const elements (config containers)
  kVar,         // symbolic input: packet field / state scalar / config scalar
  kUn,
  kBin,
  kTupleExpr,   // tuple with symbolic elements
  kListGet,     // residual list index with symbolic index
  kMapBase,     // initial contents of a state map
  kMapStore,    // map after an element store
  kMapGet,      // residual map lookup
  kContains,    // membership atom
  kCall,        // uninterpreted function (hash, payload_contains)
  kPacket,      // compound packet value (environment-only, not in constraints)
};

/// Classification of symbolic variables — Algorithm 1 (lines 13-14)
/// partitions path conditions by exactly this.
enum class VarClass : std::uint8_t { kPkt, kState, kCfg, kLocal };

struct SymExpr;
using SymRef = std::shared_ptr<const SymExpr>;

struct SymExpr {
  SymKind kind = SymKind::kConstInt;

  // Payload (union-of-fields style; only the relevant members are set).
  Int int_val = 0;
  bool bool_val = false;
  std::string str_val;                 // kConstStr; kVar/kMapBase/kCall name
  std::vector<Int> tuple_val;          // kConstTuple
  std::vector<SymRef> operands;        // children (kind-specific layout)
  lang::BinOp bin_op = lang::BinOp::kAdd;
  lang::UnOp un_op = lang::UnOp::kNeg;
  VarClass var_class = VarClass::kLocal;
  std::map<std::string, SymRef> fields;  // kPacket

  /// 64-bit structural fingerprint, set by the interner before the node
  /// is published: a deterministic hash of (kind, payload, children
  /// fingerprints). Equal structures always have equal fingerprints;
  /// the converse holds only up to hash collision, so fingerprints gate
  /// equality checks (see struct_eq) and order canonical sequences, but
  /// never decide equality alone where soundness depends on it.
  std::uint64_t fp = 0;

  SymExpr() = default;
  SymExpr(SymExpr&& o) noexcept;
  SymExpr(const SymExpr&) = delete;
  SymExpr& operator=(const SymExpr&) = delete;
  SymExpr& operator=(SymExpr&&) = delete;
  ~SymExpr();

  /// Canonical rendering; equal keys <=> structurally equal expressions
  /// (within one run — var_class is part of interned identity but not of
  /// the rendering). Computed lazily on first use and cached with an
  /// atomic publish, so concurrent readers on shared DAGs are safe; hot
  /// paths compare fingerprints/pointers instead and most nodes never
  /// render their key at all.
  const std::string& key() const;

 private:
  mutable std::atomic<const std::string*> key_{nullptr};
};

/// Structural equality. Every node is interned (symex/intern.h), so
/// structurally equal nodes are pointer-identical and this is a pointer
/// compare.
inline bool struct_eq(const SymExpr* a, const SymExpr* b) { return a == b; }
inline bool struct_eq(const SymRef& a, const SymRef& b) {
  return struct_eq(a.get(), b.get());
}

// ---- Builders (with eager constant folding) -------------------------------

SymRef make_int(Int v);
SymRef make_bool(bool v);
SymRef make_str(std::string s);
SymRef make_tuple_const(std::vector<Int> t);
SymRef make_list_const(std::vector<SymRef> elems);
SymRef make_var(std::string name, VarClass cls);
SymRef make_un(lang::UnOp op, SymRef a);
SymRef make_bin(lang::BinOp op, SymRef a, SymRef b);
SymRef make_tuple(std::vector<SymRef> elems);
SymRef make_list_get(SymRef list, SymRef idx);
SymRef make_map_base(std::string name);
SymRef make_map_store(SymRef map, SymRef key, SymRef value);
SymRef make_map_get(SymRef map, SymRef key);
SymRef make_contains(SymRef container, SymRef key);
SymRef make_call(std::string name, std::vector<SymRef> args);
SymRef make_packet(std::map<std::string, SymRef> fields);

/// Logical negation with folding (!(a==b) -> a!=b etc.).
SymRef negate(const SymRef& e);

inline bool is_const_int(const SymRef& e) {
  return e->kind == SymKind::kConstInt;
}
inline bool is_const_bool(const SymRef& e) {
  return e->kind == SymKind::kConstBool;
}

/// Human-readable rendering (infix, for model printing).
std::string to_string(const SymExpr& e);
inline std::string to_string(const SymRef& e) { return to_string(*e); }

/// All kVar nodes in the DAG, grouped by class. Memoized on node
/// identity, so heavily shared DAGs (deep map-store chains) are walked
/// in time linear in the number of unique nodes.
void collect_vars(const SymRef& e,
                  std::map<std::string, VarClass>& out);

/// Substitute named symbols (kVar and kMapBase, matched by name) with
/// replacement expressions, rebuilding through the folding builders.
/// Used by chain composition: NF2's packet-field symbols become NF1's
/// output expressions. Memoized on node identity per call, so shared
/// subtrees are rewritten once.
SymRef substitute(const SymRef& e, const std::map<std::string, SymRef>& subst);

/// Rename every state/config symbol — kVar nodes of class kState/kCfg and
/// named kMapBase nodes — with `prefix`, leaving packet symbols alone.
/// This is what gives each NF *instance* in a composed chain or topology
/// its own disjoint state/config namespace: two instances of the same NF
/// model never alias each other's symbols.
SymRef prefix_symbols(const SymRef& e, const std::string& prefix);

}  // namespace nfactor::symex
