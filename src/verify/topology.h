// Network-scale topology verification (ROADMAP item: beyond service
// chains). A Topology is a directed graph of NF *model instances* —
// nodes carry a synthesized model plus a pinned deployment configuration
// and their own state namespace, edges are port-to-port links — over
// which symbolic flows are injected at ingress points and traced to
// egress points. Queries (reachability, isolation, waypoint) are
// answered by a deterministic parallel path enumeration that reuses the
// shared solver cache, and every SAT verdict can be backed by a concrete
// witness packet replayed hop-by-hop through the model interpreter, the
// wire codec and the compiled dataplane (verify/witness.h).
//
// A service chain is the path-shaped special case: hop i's emissions
// (any port) feed hop i+1's port 0.
//
// Instances never alias state: every state/config symbol of instance
// `id` is renamed to "<id>$<symbol>" (symex::prefix_symbols), so two
// instances of one NF keep disjoint state. Paths are *simple*
// (no instance revisited) — a second visit would see the instance's
// fresh initial state again, which is unsound for a single packet — and
// bounded by QueryOptions.max_hops.
//
// Determinism: queries expand the frontier level-synchronously; frames
// within a level are processed by a worker pool at `jobs` width but
// their children and delivered paths are collected in frame index
// order, and solver verdicts are pure functions of the constraint set.
// The result (paths, verdicts, JSON) is byte-identical at any width;
// only cache hit/miss tallies are schedule-dependent.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "ir/ir.h"
#include "model/model.h"
#include "symex/expr.h"
#include "symex/solver.h"

namespace nfactor::verify {

/// One NF model instance. `id` is the instance name (also its state
/// prefix, "<id>$"); `nf` the model's NF name for display. The model
/// and module pointers are borrowed and must outlive the topology.
struct TopoNode {
  std::string id;
  std::string nf;
  const model::Model* model = nullptr;
  const ir::Module* module = nullptr;
  /// Deployment pins: config scalar -> concrete value, overriding the
  /// module initializer. Applied symbolically during traversal and to
  /// the concrete stores during witness replay. A pin only acts on a
  /// model whose config stayed symbolic (synthesized without config
  /// folding).
  std::map<std::string, std::int64_t> cfg;
};

/// Directed port-to-port link. from_port -1 = wildcard: matches any
/// egress port of `from` without an exact-match edge or egress point.
struct TopoEdge {
  std::string from;
  int from_port = -1;
  std::string to;
  int to_port = 0;
};

/// Named external attachment point. For ingress, port is the in_port
/// packets carry when injected (-1 = unconstrained / symbolic). For
/// egress, the instance port whose emissions exit the network at this
/// point (-1 = any otherwise-unconnected port).
struct TopoPoint {
  std::string name;
  std::string node;
  int port = -1;
};

struct Topology {
  std::vector<TopoNode> nodes;
  std::vector<TopoEdge> edges;
  std::vector<TopoPoint> ingress;
  std::vector<TopoPoint> egress;

  const TopoNode* node(const std::string& id) const;
  const TopoPoint* ingress_point(const std::string& name) const;
  const TopoPoint* egress_point(const std::string& name) const;
  /// Link for an emission on (from, port): exact match first, then the
  /// node's wildcard edge. nullptr = port dangles (packet leaves the
  /// modeled network and is lost).
  const TopoEdge* edge_from(const std::string& from, int port) const;
  /// First egress point covering (node, port), declaration order.
  const TopoPoint* egress_at(const std::string& node_id, int port) const;

  /// Structural problems (duplicate ids, dangling endpoints, missing
  /// models, ...). Empty = well-formed.
  std::vector<std::string> validate() const;
};

/// Resolves an NF name to its synthesized model + module; the returned
/// pointers must outlive the parsed Topology. Used by parse_topology.
struct NodeModels {
  const model::Model* model = nullptr;
  const ir::Module* module = nullptr;
};
using ModelResolver = std::function<NodeModels(const std::string& nf)>;

/// Parse the .topo text format (docs/verification.md):
///   node <id> <nf> [cfg NAME=INT]...
///   edge <a>:<port|*> -> <b>:<port>
///   ingress <name> -> <node>:<port|*>
///   egress <name> <- <node>:<port|*>
/// '#' starts a comment. Nodes with `cfg` pins take their model from
/// `resolve_pinned` when given (a resolver that keeps config symbolic),
/// the others from `resolve`. Throws std::runtime_error with a
/// line-numbered message on malformed input, an NF the resolver cannot
/// supply, or a pin on a config name the node's model does not read.
Topology parse_topology(const std::string& text, const ModelResolver& resolve,
                        const ModelResolver& resolve_pinned = nullptr);

// ---- Queries --------------------------------------------------------------

enum class QueryKind : std::uint8_t {
  kReach,     ///< holds iff some packet from `from` is delivered at `to`
  kIsolate,   ///< holds iff NO packet from `from` is delivered at `to`
  kWaypoint,  ///< holds iff every delivered from->to path traverses `via`
};

struct Query {
  QueryKind kind = QueryKind::kReach;
  std::string from;  ///< ingress point name
  std::string to;    ///< egress point name
  std::string via;   ///< waypoint instance id (kWaypoint only)
  /// Ingress header-space constraints (over pkt.* symbols of the
  /// injected packet), conjoined.
  std::vector<symex::SymRef> where;
  std::string where_text;  ///< source rendering of the where clause
};

/// Parse "reach|isolate|waypoint <from> <to> [via <node>]
/// [where pkt.<field> OP <value> && ...]". Values are integers or
/// dotted quads; OP is one of == != < <= > >=. Throws on bad specs.
Query parse_query(const std::string& spec);

std::string to_string(QueryKind k);

/// One traversal step of a symbolic path.
struct TopoHop {
  std::string node;   ///< instance id
  int entry = -1;     ///< model entry index matched at this instance
  int send = 0;       ///< flow_action index followed (fan-out branches)
  int in_port = -1;   ///< ingress port at this instance (-1 = symbolic)
  int out_port = -1;  ///< emission port (-1 = symbolic, routed wildcard)
};

/// A feasible end-to-end path, delivered at the query's `to` point.
struct TopoPath {
  std::vector<TopoHop> hops;
  /// Path condition: over ingress pkt.* symbols and "<id>$"-prefixed
  /// instance state/config symbols.
  std::vector<symex::SymRef> constraints;
  /// Egress header as expressions over the ingress packet symbols.
  std::map<std::string, symex::SymRef> egress_fields;
};

struct QueryOptions {
  /// Worker threads for frontier expansion; 0 = hardware concurrency.
  /// Any value yields byte-identical results.
  int jobs = 1;
  int max_hops = 16;
  std::size_t max_paths = 64;      ///< evidence paths kept (deterministic cap)
  std::size_t max_frames = 100000; ///< frontier expansion budget
  /// Shared verdict cache (may be shared across queries and with the
  /// synthesis executor); nullptr = each worker solves uncached.
  symex::SolverCache* solver_cache = nullptr;
};

struct QueryStats {
  std::size_t frames = 0;        ///< frames expanded (deterministic)
  std::size_t infeasible = 0;    ///< entry branches pruned (deterministic)
  std::size_t cycle_pruned = 0;  ///< branches dropped for instance revisit
  std::uint64_t solver_queries = 0;  ///< deterministic
  std::uint64_t cache_hits = 0;      ///< schedule-dependent; metrics only
  std::uint64_t cache_misses = 0;    ///< schedule-dependent; metrics only
  bool truncated = false;  ///< hit max_hops / max_paths / max_frames
};

struct QueryResult {
  Query query;
  /// Evidence paths exist: delivered paths (kReach), violating delivered
  /// paths (kIsolate), delivered paths missing `via` (kWaypoint).
  bool sat = false;
  /// Query verdict: kReach -> sat; kIsolate/kWaypoint -> !sat. For the
  /// latter two, `holds && !stats.truncated` is a proof over the model
  /// semantics (the solver is sound for pruning); a kReach `holds`
  /// should be confirmed by a replayed witness (verify/witness.h).
  bool holds = false;
  std::vector<TopoPath> paths;  ///< evidence, deterministic order
  QueryStats stats;
};

/// Answer one query. Deterministic at any QueryOptions.jobs width.
/// Throws std::runtime_error when the query names unknown points.
/// Metrics: verify.topology.{queries,frames,infeasible,paths} counters,
/// verify.topology.cache.hit_rate gauge, span verify.topology.query.
QueryResult run_query(const Topology& topo, const Query& q,
                      const QueryOptions& opts = {});

}  // namespace nfactor::verify
