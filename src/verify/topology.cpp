#include "verify/topology.h"

#include <algorithm>
#include <atomic>
#include <set>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <unordered_set>

#include "lang/builtins.h"
#include "netsim/packet.h"
#include "obs/obs.h"

namespace nfactor::verify {

using symex::SymRef;

// ---- Topology lookups -----------------------------------------------------

const TopoNode* Topology::node(const std::string& id) const {
  for (const auto& n : nodes) {
    if (n.id == id) return &n;
  }
  return nullptr;
}

const TopoPoint* Topology::ingress_point(const std::string& name) const {
  for (const auto& p : ingress) {
    if (p.name == name) return &p;
  }
  return nullptr;
}

const TopoPoint* Topology::egress_point(const std::string& name) const {
  for (const auto& p : egress) {
    if (p.name == name) return &p;
  }
  return nullptr;
}

const TopoEdge* Topology::edge_from(const std::string& from, int port) const {
  const TopoEdge* wildcard = nullptr;
  for (const auto& e : edges) {
    if (e.from != from) continue;
    if (e.from_port == port) return &e;
    if (e.from_port == -1) wildcard = &e;
  }
  return wildcard;
}

const TopoPoint* Topology::egress_at(const std::string& node_id,
                                     int port) const {
  for (const auto& p : egress) {
    if (p.node == node_id && (p.port == port || p.port == -1)) return &p;
  }
  return nullptr;
}

std::vector<std::string> Topology::validate() const {
  std::vector<std::string> problems;
  std::set<std::string> ids;
  for (const auto& n : nodes) {
    if (!ids.insert(n.id).second) {
      problems.push_back("duplicate node id '" + n.id + "'");
    }
    if (n.model == nullptr || n.module == nullptr) {
      problems.push_back("node '" + n.id + "' has no model");
    }
  }
  std::set<std::pair<std::string, int>> exact_edges;
  for (const auto& e : edges) {
    if (!ids.count(e.from)) {
      problems.push_back("edge from unknown node '" + e.from + "'");
    }
    if (!ids.count(e.to)) {
      problems.push_back("edge to unknown node '" + e.to + "'");
    }
    if (e.to_port < 0) {
      problems.push_back("edge into '" + e.to + "' needs a concrete port");
    }
    if (!exact_edges.insert({e.from, e.from_port}).second) {
      problems.push_back("duplicate edge from '" + e.from + "':" +
                         std::to_string(e.from_port));
    }
  }
  std::set<std::string> points;
  for (const auto& p : ingress) {
    if (!points.insert(p.name).second) {
      problems.push_back("duplicate point name '" + p.name + "'");
    }
    if (!ids.count(p.node)) {
      problems.push_back("ingress '" + p.name + "' on unknown node '" +
                         p.node + "'");
    }
  }
  for (const auto& p : egress) {
    if (!points.insert(p.name).second) {
      problems.push_back("duplicate point name '" + p.name + "'");
    }
    if (!ids.count(p.node)) {
      problems.push_back("egress '" + p.name + "' on unknown node '" + p.node +
                         "'");
    }
    if (p.port >= 0 && exact_edges.count({p.node, p.port})) {
      problems.push_back("port " + p.node + ":" + std::to_string(p.port) +
                         " is both linked and an egress point");
    }
  }
  return problems;
}

// ---- .topo parser ---------------------------------------------------------

namespace {

[[noreturn]] void parse_fail(int line, const std::string& why) {
  throw std::runtime_error("topology line " + std::to_string(line) + ": " +
                           why);
}

std::vector<std::string> tokenize(const std::string& line) {
  std::vector<std::string> toks;
  std::istringstream is(line);
  std::string t;
  while (is >> t) {
    if (t[0] == '#') break;  // comment to end of line
    toks.push_back(t);
  }
  return toks;
}

/// "node:port" with port '*' -> -1. `allow_wild` gates the '*' form.
std::pair<std::string, int> split_endpoint(const std::string& tok, int line,
                                           bool allow_wild) {
  const auto colon = tok.rfind(':');
  if (colon == std::string::npos || colon == 0 || colon + 1 == tok.size()) {
    parse_fail(line, "expected <node>:<port>, got '" + tok + "'");
  }
  const std::string node = tok.substr(0, colon);
  const std::string port = tok.substr(colon + 1);
  if (port == "*") {
    if (!allow_wild) parse_fail(line, "wildcard port not allowed here");
    return {node, -1};
  }
  try {
    std::size_t used = 0;
    const int p = std::stoi(port, &used);
    if (used != port.size() || p < 0) throw std::invalid_argument(port);
    return {node, p};
  } catch (const std::exception&) {
    parse_fail(line, "bad port '" + port + "'");
  }
}

std::int64_t parse_int_value(const std::string& text, int line) {
  // Dotted quad -> IPv4 value; otherwise a (possibly hex) integer.
  if (text.find('.') != std::string::npos) {
    try {
      return static_cast<std::int64_t>(netsim::ipv4(text));
    } catch (const std::exception&) {
      parse_fail(line, "bad address '" + text + "'");
    }
  }
  try {
    std::size_t used = 0;
    const std::int64_t v = std::stoll(text, &used, 0);
    if (used != text.size()) throw std::invalid_argument(text);
    return v;
  } catch (const std::exception&) {
    parse_fail(line, "bad value '" + text + "'");
  }
}

/// Config symbols the model's entries read, in matches or actions.
std::set<std::string> config_reads(const model::Model& m) {
  std::map<std::string, symex::VarClass> vars;
  for (const auto& e : m.entries) {
    for (const auto* conds : {&e.config_match, &e.flow_match, &e.state_match}) {
      for (const auto& c : *conds) symex::collect_vars(c, vars);
    }
    for (const auto& a : e.flow_action) {
      symex::collect_vars(a.port, vars);
      for (const auto& [field, expr] : a.rewrites) symex::collect_vars(expr, vars);
    }
    for (const auto& [var, expr] : e.state_action) symex::collect_vars(expr, vars);
  }
  std::set<std::string> out;
  for (const auto& [name, cls] : vars) {
    if (cls == symex::VarClass::kCfg) out.insert(name);
  }
  return out;
}

}  // namespace

Topology parse_topology(const std::string& text, const ModelResolver& resolve,
                        const ModelResolver& resolve_pinned) {
  Topology topo;
  std::istringstream is(text);
  std::string line;
  int lineno = 0;
  while (std::getline(is, line)) {
    ++lineno;
    const auto toks = tokenize(line);
    if (toks.empty()) continue;
    const std::string& kw = toks[0];

    if (kw == "node") {
      if (toks.size() < 3) parse_fail(lineno, "node <id> <nf> [cfg K=V]...");
      TopoNode n;
      n.id = toks[1];
      n.nf = toks[2];
      for (std::size_t i = 3; i < toks.size(); ++i) {
        if (toks[i] == "cfg") continue;
        const auto eq = toks[i].find('=');
        if (eq == std::string::npos || eq == 0) {
          parse_fail(lineno, "expected NAME=VALUE, got '" + toks[i] + "'");
        }
        n.cfg[toks[i].substr(0, eq)] =
            parse_int_value(toks[i].substr(eq + 1), lineno);
      }
      const bool pinned = !n.cfg.empty() && resolve_pinned;
      const NodeModels m = (pinned ? resolve_pinned : resolve)(n.nf);
      if (m.model == nullptr || m.module == nullptr) {
        parse_fail(lineno, "unknown NF '" + n.nf + "'");
      }
      if (!n.cfg.empty()) {
        const std::set<std::string> reads = config_reads(*m.model);
        for (const auto& [name, value] : n.cfg) {
          if (reads.count(name) == 0) {
            parse_fail(lineno, "pin '" + name + "': the model of '" + n.nf +
                                   "' reads no config named '" + name + "'");
          }
        }
      }
      n.model = m.model;
      n.module = m.module;
      topo.nodes.push_back(std::move(n));
    } else if (kw == "edge") {
      if (toks.size() != 4 || toks[2] != "->") {
        parse_fail(lineno, "edge <a>:<port> -> <b>:<port>");
      }
      TopoEdge e;
      std::tie(e.from, e.from_port) = split_endpoint(toks[1], lineno, true);
      std::tie(e.to, e.to_port) = split_endpoint(toks[3], lineno, false);
      topo.edges.push_back(std::move(e));
    } else if (kw == "ingress" || kw == "egress") {
      const bool in = kw == "ingress";
      if (toks.size() != 4 || toks[2] != (in ? "->" : "<-")) {
        parse_fail(lineno, in ? "ingress <name> -> <node>:<port>"
                              : "egress <name> <- <node>:<port>");
      }
      TopoPoint p;
      p.name = toks[1];
      std::tie(p.node, p.port) = split_endpoint(toks[3], lineno, true);
      (in ? topo.ingress : topo.egress).push_back(std::move(p));
    } else {
      parse_fail(lineno, "unknown directive '" + kw + "'");
    }
  }
  const auto problems = topo.validate();
  if (!problems.empty()) {
    throw std::runtime_error("invalid topology: " + problems.front());
  }
  return topo;
}

// ---- Query parser ---------------------------------------------------------

std::string to_string(QueryKind k) {
  switch (k) {
    case QueryKind::kReach: return "reach";
    case QueryKind::kIsolate: return "isolate";
    case QueryKind::kWaypoint: return "waypoint";
  }
  return "?";
}

namespace {

std::string trim(const std::string& s) {
  const auto b = s.find_first_not_of(" \t");
  if (b == std::string::npos) return "";
  const auto e = s.find_last_not_of(" \t");
  return s.substr(b, e - b + 1);
}

SymRef parse_where_atom(const std::string& atom) {
  using lang::BinOp;
  static const std::vector<std::pair<std::string, BinOp>> kOps = {
      {"==", BinOp::kEq}, {"!=", BinOp::kNe}, {"<=", BinOp::kLe},
      {">=", BinOp::kGe}, {"<", BinOp::kLt},  {">", BinOp::kGt},
  };
  for (const auto& [text, op] : kOps) {
    const auto pos = atom.find(text);
    if (pos == std::string::npos) continue;
    const std::string lhs = trim(atom.substr(0, pos));
    const std::string rhs = trim(atom.substr(pos + text.size()));
    if (!lhs.starts_with("pkt.")) {
      throw std::runtime_error("where clause must constrain pkt.* fields: '" +
                               atom + "'");
    }
    const std::string field = lhs.substr(4);
    bool known = false;
    for (const auto& f : lang::packet_fields()) known |= f.name == field;
    if (!known) {
      throw std::runtime_error("unknown packet field '" + lhs + "'");
    }
    return symex::make_bin(op, symex::make_var(lhs, symex::VarClass::kPkt),
                           symex::make_int(parse_int_value(rhs, 0)));
  }
  throw std::runtime_error("bad where atom '" + atom +
                           "' (expected pkt.<field> OP <value>)");
}

}  // namespace

Query parse_query(const std::string& spec) {
  std::istringstream is(spec);
  std::string kind;
  Query q;
  if (!(is >> kind >> q.from >> q.to)) {
    throw std::runtime_error(
        "bad query '" + spec +
        "' (expected: reach|isolate|waypoint <from> <to> ...)");
  }
  if (kind == "reach") {
    q.kind = QueryKind::kReach;
  } else if (kind == "isolate") {
    q.kind = QueryKind::kIsolate;
  } else if (kind == "waypoint") {
    q.kind = QueryKind::kWaypoint;
  } else {
    throw std::runtime_error("unknown query kind '" + kind + "'");
  }
  std::string tok;
  if (is >> tok) {
    if (tok == "via") {
      if (q.kind != QueryKind::kWaypoint) {
        throw std::runtime_error("'via' is only valid on waypoint queries");
      }
      if (!(is >> q.via)) throw std::runtime_error("via needs a node id");
      if (!(is >> tok)) tok.clear();
    }
    if (!tok.empty()) {
      if (tok != "where") {
        throw std::runtime_error("unexpected token '" + tok + "'");
      }
      std::string rest;
      std::getline(is, rest);
      q.where_text = trim(rest);
      if (q.where_text.empty()) {
        throw std::runtime_error("empty where clause");
      }
      // Split the conjunction on '&&'.
      std::string remaining = q.where_text;
      while (true) {
        const auto amp = remaining.find("&&");
        const std::string atom =
            trim(amp == std::string::npos ? remaining : remaining.substr(0, amp));
        if (atom.empty()) throw std::runtime_error("empty where atom");
        q.where.push_back(parse_where_atom(atom));
        if (amp == std::string::npos) break;
        remaining = remaining.substr(amp + 2);
      }
    }
  }
  if (q.kind == QueryKind::kWaypoint && q.via.empty()) {
    throw std::runtime_error("waypoint queries need 'via <node>'");
  }
  return q;
}

// ---- Query engine ---------------------------------------------------------

namespace {

/// One model entry with this instance's config pins substituted and its
/// state/config symbols "<id>$"-prefixed. Precomputed once per query so
/// the traversal only does per-hop packet-field substitution.
struct InstSend {
  std::map<std::string, SymRef> rewrites;  // "pkt.<field>" keyed
  SymRef port;
};
struct InstEntry {
  int index = 0;
  std::vector<SymRef> match;  // config + flow + state conjuncts
  std::vector<InstSend> sends;
};
struct Instance {
  const TopoNode* node = nullptr;
  std::vector<InstEntry> entries;       // forwarding entries only
  std::vector<int> known_ports;         // sorted exact out-ports at this node
  bool has_wildcard_out = false;        // a wildcard edge or egress point
};

Instance prepare_instance(const Topology& topo, const TopoNode& n) {
  Instance inst;
  inst.node = &n;
  const std::string prefix = n.id + "$";
  std::map<std::string, SymRef> pins;
  for (const auto& [name, value] : n.cfg) {
    pins[name] = symex::make_int(value);
  }
  const auto land = [&](const SymRef& e) {
    const SymRef pinned = pins.empty() ? e : symex::substitute(e, pins);
    return symex::prefix_symbols(pinned, prefix);
  };
  for (std::size_t ei = 0; ei < n.model->entries.size(); ++ei) {
    const model::ModelEntry& e = n.model->entries[ei];
    if (e.is_drop()) continue;  // dropped packets never leave the node
    InstEntry ie;
    ie.index = static_cast<int>(ei);
    for (const auto& c : e.config_match) ie.match.push_back(land(c));
    for (const auto& c : e.flow_match) ie.match.push_back(land(c));
    for (const auto& c : e.state_match) ie.match.push_back(land(c));
    for (const auto& a : e.flow_action) {
      InstSend s;
      for (const auto& [field, expr] : a.rewrites) {
        s.rewrites["pkt." + field] = land(expr);
      }
      s.port = land(a.port);
      ie.sends.push_back(std::move(s));
    }
    inst.entries.push_back(std::move(ie));
  }
  std::set<int> ports;
  for (const auto& e : topo.edges) {
    if (e.from != n.id) continue;
    if (e.from_port >= 0) {
      ports.insert(e.from_port);
    } else {
      inst.has_wildcard_out = true;
    }
  }
  for (const auto& p : topo.egress) {
    if (p.node != n.id) continue;
    if (p.port >= 0) {
      ports.insert(p.port);
    } else {
      inst.has_wildcard_out = true;
    }
  }
  inst.known_ports.assign(ports.begin(), ports.end());
  return inst;
}

struct Frame {
  int node = -1;  ///< index into the instance array
  int in_port = -1;
  std::vector<SymRef> constraints;
  std::map<std::string, SymRef> fields;  ///< "pkt.<f>" -> current expr
  std::vector<TopoHop> hops;
  std::vector<char> visited;  ///< per node index (simple paths only)
};

/// Result of expanding one frame: children for the next level plus the
/// paths delivered at the target point, all in deterministic order.
struct Expansion {
  std::vector<Frame> children;
  std::vector<TopoPath> delivered;
  std::size_t infeasible = 0;
  std::size_t cycle_pruned = 0;
  bool depth_truncated = false;
};

class QueryEngine {
 public:
  QueryEngine(const Topology& topo, const Query& q, const QueryOptions& opts)
      : topo_(topo), q_(q), opts_(opts) {
    for (const auto& n : topo.nodes) {
      instances_.push_back(prepare_instance(topo, n));
      node_index_[n.id] = static_cast<int>(instances_.size()) - 1;
    }
  }

  Expansion expand(const Frame& fr, symex::Solver& solver) const {
    Expansion out;
    const Instance& inst = instances_[static_cast<std::size_t>(fr.node)];
    const std::string& id = inst.node->id;

    // The link (or ingress point) fixed this hop's arrival port.
    std::map<std::string, SymRef> fields = fr.fields;
    if (fr.in_port >= 0) {
      fields["pkt.in_port"] = symex::make_int(fr.in_port);
    }

    for (const InstEntry& e : inst.entries) {
      std::vector<SymRef> entry_constraints = fr.constraints;
      bool trivially_false = false;
      for (const auto& c : e.match) {
        const SymRef cc = symex::substitute(c, fields);
        if (symex::is_const_bool(cc) && !cc->bool_val) trivially_false = true;
        entry_constraints.push_back(cc);
      }
      if (trivially_false ||
          solver.check(entry_constraints) == symex::SatResult::kUnsat) {
        ++out.infeasible;
        continue;
      }

      for (std::size_t si = 0; si < e.sends.size(); ++si) {
        const InstSend& send = e.sends[si];
        std::map<std::string, SymRef> sent = fields;
        for (const auto& [field, expr] : send.rewrites) {
          sent[field] = symex::substitute(expr, fields);
        }
        const SymRef port = symex::substitute(send.port, fields);

        TopoHop hop;
        hop.node = id;
        hop.entry = e.index;
        hop.send = static_cast<int>(si);
        hop.in_port = fr.in_port;

        if (symex::is_const_int(port)) {
          hop.out_port = static_cast<int>(port->int_val);
          route(fr, hop, entry_constraints, sent, out);
          continue;
        }
        // Symbolic egress port: branch per known port of this node, and
        // (if a wildcard link or egress point exists) a residual "some
        // other port" branch.
        for (const int p : inst.known_ports) {
          std::vector<SymRef> with_port = entry_constraints;
          with_port.push_back(
              symex::make_bin(lang::BinOp::kEq, port, symex::make_int(p)));
          if (solver.check(with_port) == symex::SatResult::kUnsat) {
            ++out.infeasible;
            continue;
          }
          TopoHop h = hop;
          h.out_port = p;
          route(fr, h, with_port, sent, out);
        }
        if (inst.has_wildcard_out) {
          std::vector<SymRef> residual = entry_constraints;
          for (const int p : inst.known_ports) {
            residual.push_back(
                symex::make_bin(lang::BinOp::kNe, port, symex::make_int(p)));
          }
          if (solver.check(residual) == symex::SatResult::kUnsat) {
            ++out.infeasible;
            continue;
          }
          TopoHop h = hop;
          h.out_port = -1;
          route(fr, h, residual, sent, out);
        }
      }
    }
    return out;
  }

  Frame initial(const TopoPoint& in) const {
    Frame fr;
    fr.node = node_index_.at(in.node);
    fr.in_port = in.port;
    fr.constraints = q_.where;
    for (const auto& f : lang::packet_fields()) {
      fr.fields["pkt." + f.name] =
          symex::make_var("pkt." + f.name, symex::VarClass::kPkt);
    }
    fr.visited.assign(instances_.size(), 0);
    fr.visited[static_cast<std::size_t>(fr.node)] = 1;
    return fr;
  }

  const Query& query() const { return q_; }

 private:
  /// Deliver or forward one routed emission.
  void route(const Frame& fr, const TopoHop& hop,
             const std::vector<SymRef>& constraints,
             const std::map<std::string, SymRef>& sent, Expansion& out) const {
    const std::string& id = hop.node;
    // A symbolic port (-1) that avoided every known port exits at a
    // wildcard egress point if the node has one.
    if (const TopoPoint* ep = topo_.egress_at(id, hop.out_port)) {
      if (ep->name != q_.to) return;  // exits the network elsewhere
      TopoPath path;
      path.hops = fr.hops;
      path.hops.push_back(hop);
      path.constraints = constraints;
      path.egress_fields = sent;
      out.delivered.push_back(std::move(path));
      return;
    }
    const TopoEdge* edge = hop.out_port >= 0
                               ? topo_.edge_from(id, hop.out_port)
                               : topo_.edge_from(id, -1);
    if (edge == nullptr) return;  // dangling port: packet is lost
    const int next = node_index_.at(edge->to);
    if (fr.visited[static_cast<std::size_t>(next)] != 0) {
      ++out.cycle_pruned;
      return;
    }
    if (fr.hops.size() + 1 >= static_cast<std::size_t>(opts_.max_hops)) {
      out.depth_truncated = true;
      return;
    }
    Frame child;
    child.node = next;
    child.in_port = edge->to_port;
    child.constraints = constraints;
    child.fields = sent;
    child.hops = fr.hops;
    child.hops.push_back(hop);
    child.visited = fr.visited;
    child.visited[static_cast<std::size_t>(next)] = 1;
    out.children.push_back(std::move(child));
  }

  const Topology& topo_;
  const Query& q_;
  const QueryOptions& opts_;
  std::vector<Instance> instances_;
  std::map<std::string, int> node_index_;
};

/// Does this delivered path count as evidence for the query?
bool is_evidence(const Query& q, const TopoPath& path) {
  if (q.kind != QueryKind::kWaypoint) return true;  // any delivered path
  for (const auto& h : path.hops) {
    if (h.node == q.via) return false;  // traversed the waypoint: compliant
  }
  return true;  // delivered while skipping the waypoint: violation
}

bool mentions_state(const symex::SymExpr* e,
                    std::unordered_set<const symex::SymExpr*>& seen) {
  if (!seen.insert(e).second) return false;
  switch (e->kind) {
    case symex::SymKind::kContains:
    case symex::SymKind::kMapGet:
    case symex::SymKind::kMapBase:
    case symex::SymKind::kMapStore:
      return true;
    default:
      break;
  }
  for (const auto& c : e->operands) {
    if (mentions_state(c.get(), seen)) return true;
  }
  for (const auto& [f, v] : e->fields) {
    (void)f;
    if (mentions_state(v.get(), seen)) return true;
  }
  return false;
}

/// Can this path's condition possibly hold on *fresh* instance state?
/// Negative membership atoms are fine on empty maps; positive membership
/// or any map read cannot be. Used only to order the evidence list so
/// witness materialization tries fresh-state paths first — the concrete
/// verification in materialize_witness stays the authority.
bool needs_state(const TopoPath& path) {
  for (const auto& c : path.constraints) {
    const symex::SymExpr* e = c.get();
    int negations = 0;
    while (e->kind == symex::SymKind::kUn && e->un_op == lang::UnOp::kNot) {
      e = e->operands[0].get();
      ++negations;
    }
    if (e->kind == symex::SymKind::kContains) {
      if (negations % 2 == 1) continue;  // "not in map": fresh state is fine
      return true;                       // membership required
    }
    std::unordered_set<const symex::SymExpr*> seen;
    if (mentions_state(e, seen)) return true;
  }
  return false;
}

}  // namespace

QueryResult run_query(const Topology& topo, const Query& q,
                      const QueryOptions& opts) {
  OBS_SPAN("verify.topology.query");
  OBS_COUNT("verify.topology.queries");

  const TopoPoint* in = topo.ingress_point(q.from);
  if (in == nullptr) {
    throw std::runtime_error("unknown ingress point '" + q.from + "'");
  }
  if (topo.egress_point(q.to) == nullptr) {
    throw std::runtime_error("unknown egress point '" + q.to + "'");
  }
  if (q.kind == QueryKind::kWaypoint && topo.node(q.via) == nullptr) {
    throw std::runtime_error("unknown waypoint node '" + q.via + "'");
  }

  QueryResult result;
  result.query = q;

  const QueryEngine engine(topo, q, opts);
  std::vector<Frame> frontier;
  frontier.push_back(engine.initial(*in));

  int jobs = opts.jobs > 0
                 ? opts.jobs
                 : static_cast<int>(std::thread::hardware_concurrency());
  if (jobs < 1) jobs = 1;

  std::uint64_t solver_queries = 0;
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  std::vector<TopoPath> fresh_paths;
  std::vector<TopoPath> stateful_paths;
  bool stop = false;
  while (!frontier.empty() && !stop) {
    if (result.stats.frames + frontier.size() > opts.max_frames) {
      frontier.resize(opts.max_frames - result.stats.frames);
      result.stats.truncated = true;
      if (frontier.empty()) break;
    }
    const std::size_t n = frontier.size();
    std::vector<Expansion> expansions(n);

    const int workers =
        static_cast<int>(std::min<std::size_t>(static_cast<std::size_t>(jobs), n));
    if (workers <= 1) {
      symex::Solver solver(opts.solver_cache);
      for (std::size_t i = 0; i < n; ++i) {
        expansions[i] = engine.expand(frontier[i], solver);
      }
      solver_queries += solver.query_count();
      cache_hits += solver.cache_hits();
      cache_misses += solver.cache_misses();
    } else {
      std::atomic<std::size_t> next{0};
      std::atomic<std::uint64_t> queries{0}, hits{0}, misses{0};
      std::vector<std::thread> pool;
      pool.reserve(static_cast<std::size_t>(workers));
      for (int w = 0; w < workers; ++w) {
        pool.emplace_back([&] {
          symex::Solver solver(opts.solver_cache);
          for (std::size_t i = next.fetch_add(1); i < n;
               i = next.fetch_add(1)) {
            expansions[i] = engine.expand(frontier[i], solver);
          }
          queries += solver.query_count();
          hits += solver.cache_hits();
          misses += solver.cache_misses();
        });
      }
      for (auto& t : pool) t.join();
      solver_queries += queries.load();
      cache_hits += hits.load();
      cache_misses += misses.load();
    }

    result.stats.frames += n;
    std::vector<Frame> next_frontier;
    for (std::size_t i = 0; i < n; ++i) {
      Expansion& ex = expansions[i];
      result.stats.infeasible += ex.infeasible;
      result.stats.cycle_pruned += ex.cycle_pruned;
      if (ex.depth_truncated) result.stats.truncated = true;
      for (auto& path : ex.delivered) {
        if (!is_evidence(q, path)) continue;
        // Fresh-state paths are the witness candidates: keep them ahead
        // of state-dependent ones and only stop once *their* pool is
        // full (state-dependent evidence beyond the cap is just noted).
        auto& pool = needs_state(path) ? stateful_paths : fresh_paths;
        if (pool.size() >= opts.max_paths) {
          result.stats.truncated = true;
          if (&pool == &fresh_paths) {
            stop = true;
            break;
          }
          continue;
        }
        pool.push_back(std::move(path));
      }
      if (stop) break;
      for (auto& child : ex.children) {
        next_frontier.push_back(std::move(child));
      }
    }
    frontier = std::move(next_frontier);
  }

  result.paths = std::move(fresh_paths);
  for (auto& path : stateful_paths) {
    if (result.paths.size() >= opts.max_paths) {
      result.stats.truncated = true;
      break;
    }
    result.paths.push_back(std::move(path));
  }

  result.stats.solver_queries = solver_queries;
  result.stats.cache_hits = cache_hits;
  result.stats.cache_misses = cache_misses;
  result.sat = !result.paths.empty();
  result.holds = q.kind == QueryKind::kReach ? result.sat : !result.sat;

  OBS_COUNT_N("verify.topology.frames", result.stats.frames);
  OBS_COUNT_N("verify.topology.infeasible", result.stats.infeasible);
  OBS_COUNT_N("verify.topology.paths", result.paths.size());
  OBS_COUNT_N("verify.topology.solver.queries", solver_queries);
  if (cache_hits + cache_misses > 0) {
    OBS_GAUGE("verify.topology.cache.hit_rate",
              static_cast<double>(cache_hits) /
                  static_cast<double>(cache_hits + cache_misses));
  }
  return result;
}

}  // namespace nfactor::verify
