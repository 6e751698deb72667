// Hash-consing interner for symbolic expressions (docs/symex_interning.md).
//
// Every SymExpr built through the expr.h builders is routed through a
// process-wide sharded intern table, so structurally equal expression
// DAGs are pointer-identical and `struct_eq(a, b)` collapses to `a == b`.
// Each node carries a precomputed 64-bit structural fingerprint (children
// hashed by their fingerprints, not their rendered keys), which gives the
// solver, the solver cache, and canonical orderings O(1) word compares
// where they previously concatenated and compared O(subtree) key strings.
//
// Collision posture: fingerprints *gate* equality, they never decide it.
// Inside the intern table a fingerprint match is confirmed by a shallow
// structural compare (kind + payload + child pointers); consumers that
// map by fingerprint (solver term tables, the solver cache) confirm a
// hit with pointer/structural equality before trusting it.
//
// The table never owns a node: a node dies with its last SymRef, and its
// deleter unlinks the node's entry (and the bucket, once empty) before
// freeing it, so the table and its memory track the live expression graph.
#pragma once

#include <cstdint>
#include <string>

#include "symex/expr.h"

namespace nfactor::symex {

/// Cumulative interner counters (process-wide, across all threads).
struct InternStats {
  std::uint64_t nodes = 0;  ///< unique nodes allocated (intern misses)
  std::uint64_t hits = 0;   ///< builder calls answered by an existing node
  std::uint64_t bytes = 0;  ///< approximate bytes of the unique nodes
  std::size_t live = 0;     ///< nodes currently alive in the table
  std::size_t buckets = 0;  ///< occupied fingerprint buckets
};

/// Snapshot of the interner counters. `buckets` takes each of the 16
/// shard locks once; the cost does not grow with the table.
InternStats intern_stats();

/// One-line occupancy digest for CLI --stats output.
std::string intern_summary();

/// Mirror the counters into the default obs registry as the
/// `symex.intern.{nodes,hits,bytes}` counters (publishing deltas since
/// the previous call, so repeated publishes stay monotonic) and the
/// `symex.intern.live_nodes` gauge. Called once per pipeline run — the
/// hot intern path itself only touches interner-local atomics.
void publish_intern_metrics();

/// Canonicalize a fully built node: computes its structural fingerprint
/// and returns the unique shared node for that structure (allocating it
/// on first sight). Builders' internal funnel — all SymExpr allocation
/// goes through here; not meant for direct use outside expr.cpp.
SymRef intern_node(SymExpr&& n);

}  // namespace nfactor::symex
