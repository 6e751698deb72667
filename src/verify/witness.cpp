#include "verify/witness.h"

#include <sstream>
#include <stdexcept>

#include "dataplane/engine.h"
#include "model/interp.h"
#include "netsim/trace.h"
#include "obs/json.h"
#include "obs/obs.h"
#include "verify/probe.h"

namespace nfactor::verify {

namespace {

/// Concrete initial store of one instance, with its deployment pins
/// applied — the store both replay backends run against, and (prefixed)
/// the store witness constraints are verified under.
std::map<std::string, runtime::Value> instance_store(const TopoNode& n) {
  auto store = model::initial_store(*n.module);
  for (const auto& [name, value] : n.cfg) {
    store[name] = runtime::Value(runtime::Int(value));
  }
  return store;
}

/// Wire-codec leg: the frame must survive encode -> decode unchanged
/// (in_port is harness metadata, not a wire field — carried separately,
/// exactly as the trace format does).
bool wire_roundtrip_ok(const netsim::Packet& p) {
  const std::vector<std::uint8_t> wire = netsim::encode(p);
  std::optional<netsim::Packet> dec = netsim::decode(wire);
  if (!dec) return false;
  dec->in_port = p.in_port;
  return *dec == p;
}

}  // namespace

std::optional<Witness> materialize_witness(const Topology& topo,
                                           const Query& q,
                                           const TopoPath& path) {
  // Every instance's initial store, "<id>$"-prefixed into one namespace —
  // the same naming the traversal gave the path constraints.
  std::map<std::string, runtime::Value> combined;
  for (const auto& n : topo.nodes) {
    for (auto& [key, value] : instance_store(n)) {
      combined[n.id + "$" + key] = std::move(value);
    }
  }

  // Propose: invert what the prober understands; leftovers are caught by
  // the verification pass below.
  ProbeBuilder probe(symex::store_env(combined));
  for (const auto& c : path.constraints) {
    (void)probe.apply(c);
  }
  netsim::Packet pkt = probe.packet();
  if (const TopoPoint* in = topo.ingress_point(q.from); in && in->port >= 0) {
    pkt.in_port = in->port;
  }
  // Non-TCP frames carry no TCP header: drop the probe's TCP-only
  // defaults to the decoder's values so the round-trip compares equal.
  // If the path really needed those fields alongside a non-TCP proto,
  // the concrete verification below rejects it.
  if (pkt.ip_proto != static_cast<std::uint8_t>(netsim::IpProto::kTcp)) {
    pkt.tcp_seq = 0;
    pkt.tcp_ack = 0;
    pkt.tcp_flags = 0;
    pkt.tcp_win = netsim::Packet{}.tcp_win;
  }

  // The witness must be realizable as wire bytes, or the netsim replay
  // leg could never carry it.
  if (!wire_roundtrip_ok(pkt)) return std::nullopt;

  // Dispose: every path constraint must hold concretely for this packet
  // under the initial stores. Paths needing non-initial state (positive
  // membership on a fresh map) or mis-inverted constraints die here.
  const symex::ConcreteEnv env = symex::store_env(combined, &pkt);
  for (const auto& c : path.constraints) {
    const auto v = try_const(c, env);
    if (!v || *v == 0) return std::nullopt;
  }

  Witness w;
  w.ingress = pkt;
  w.hops = path.hops;
  w.from = q.from;
  w.to = q.to;
  return w;
}

ReplayReport replay_witness(const Topology& topo, const Witness& w) {
  OBS_SPAN("verify.topology.replay");
  ReplayReport rep;
  netsim::Packet cur = w.ingress;
  try {
    for (const TopoHop& hop : w.hops) {
      const TopoNode* node = topo.node(hop.node);
      if (node == nullptr) {
        rep.detail = "unknown instance '" + hop.node + "'";
        return rep;
      }
      if (hop.in_port >= 0) cur.in_port = hop.in_port;
      const std::string at = "at " + hop.node + ": ";

      if (!wire_roundtrip_ok(cur)) {
        rep.detail = at + "wire codec round-trip failed";
        return rep;
      }

      // Reference leg: the model interpreter on the instance's store.
      const auto store = instance_store(*node);
      model::ModelInterpreter interp(*node->model, store);
      const model::ModelOutput mo = interp.process(cur);
      if (mo.matched_entry != hop.entry) {
        rep.detail = at + "model matched entry " +
                     std::to_string(mo.matched_entry) + ", path expected " +
                     std::to_string(hop.entry);
        return rep;
      }
      if (hop.send < 0 ||
          static_cast<std::size_t>(hop.send) >= mo.sent.size()) {
        rep.detail = at + "model emitted " + std::to_string(mo.sent.size()) +
                     " packets, path expected send " + std::to_string(hop.send);
        return rep;
      }

      // Compiled leg: the dataplane engine must agree exactly.
      dataplane::CompileOptions copts;
      copts.bindings = &store;
      const dataplane::CompiledTable table =
          dataplane::compile(*node->model, copts);
      dataplane::DataplaneEngine engine(table, store);
      const model::ModelOutput dp = engine.process(cur);
      if (dp.matched_entry != mo.matched_entry ||
          dp.sent.size() != mo.sent.size()) {
        rep.detail = at + "dataplane diverged from the model interpreter";
        return rep;
      }
      for (std::size_t k = 0; k < mo.sent.size(); ++k) {
        if (!(dp.sent[k].first == mo.sent[k].first) ||
            dp.sent[k].second != mo.sent[k].second ||
            netsim::encode(dp.sent[k].first) !=
                netsim::encode(mo.sent[k].first)) {
          rep.detail = at + "dataplane send " + std::to_string(k) +
                       " differs from the model interpreter";
          return rep;
        }
      }

      const auto& [out_pkt, out_port] = mo.sent[static_cast<std::size_t>(hop.send)];
      if (hop.out_port >= 0 && out_port != hop.out_port) {
        rep.detail = at + "emitted on port " + std::to_string(out_port) +
                     ", path expected " + std::to_string(hop.out_port);
        return rep;
      }

      ReplayedHop rh;
      rh.hop = hop;
      rh.input = cur;
      rh.output = out_pkt;
      rh.out_port = out_port;
      rep.hops.push_back(std::move(rh));
      cur = out_pkt;
    }
  } catch (const std::exception& ex) {
    rep.detail = std::string("replay backend threw: ") + ex.what();
    return rep;
  }
  rep.egress = cur;
  rep.consistent = true;
  return rep;
}

std::optional<Witness> find_witness(const Topology& topo,
                                    const QueryResult& result,
                                    ReplayReport* replay_out) {
  for (const TopoPath& path : result.paths) {
    auto w = materialize_witness(topo, result.query, path);
    if (!w) continue;
    ReplayReport rep = replay_witness(topo, *w);
    if (!rep.consistent) continue;
    OBS_COUNT("verify.topology.witnesses");
    if (replay_out != nullptr) *replay_out = std::move(rep);
    return w;
  }
  return std::nullopt;
}

void write_witness_trace(const std::string& path, const ReplayReport& replay) {
  std::vector<netsim::Packet> frames;
  frames.reserve(replay.hops.size() + 1);
  for (const auto& h : replay.hops) frames.push_back(h.input);
  if (replay.consistent) {
    netsim::Packet egress = replay.egress;
    egress.in_port = 0;  // the trace tag is an *ingress* port; none here
    frames.push_back(std::move(egress));
  }
  netsim::write_trace(path, frames);
}

// ---- JSON -----------------------------------------------------------------

namespace {

std::string hex(const std::vector<std::uint8_t>& bytes) {
  static const char* kDigits = "0123456789abcdef";
  std::string out;
  out.reserve(bytes.size() * 2);
  for (const std::uint8_t b : bytes) {
    out += kDigits[b >> 4];
    out += kDigits[b & 0xF];
  }
  return out;
}

void append_hop(std::ostringstream& os, const TopoHop& h) {
  os << "{\"node\":\"" << obs::json_escape(h.node)
     << "\",\"entry\":" << h.entry << ",\"send\":" << h.send
     << ",\"in_port\":" << h.in_port << ",\"out_port\":" << h.out_port << "}";
}

void append_packet(std::ostringstream& os, const netsim::Packet& p) {
  os << "{\"summary\":\"" << obs::json_escape(netsim::to_string(p))
     << "\",\"in_port\":" << p.in_port << ",\"wire\":\""
     << hex(netsim::encode(p)) << "\"}";
}

}  // namespace

std::string topology_json(const Topology& topo, const QueryResult& result,
                          const Witness* witness, const ReplayReport* replay) {
  std::ostringstream os;
  os << "{\"format\":\"nfactor-topology-v1\",";
  os << "\"topology\":{\"nodes\":" << topo.nodes.size()
     << ",\"edges\":" << topo.edges.size()
     << ",\"ingress\":" << topo.ingress.size()
     << ",\"egress\":" << topo.egress.size() << "},";

  const Query& q = result.query;
  os << "\"query\":{\"kind\":\"" << to_string(q.kind) << "\",\"from\":\""
     << obs::json_escape(q.from) << "\",\"to\":\"" << obs::json_escape(q.to)
     << "\"";
  if (!q.via.empty()) os << ",\"via\":\"" << obs::json_escape(q.via) << "\"";
  if (!q.where_text.empty()) {
    os << ",\"where\":\"" << obs::json_escape(q.where_text) << "\"";
  }
  os << "},";

  const bool replayed =
      witness != nullptr && replay != nullptr && replay->consistent;
  os << "\"verdict\":{\"holds\":" << (result.holds ? "true" : "false")
     << ",\"sat\":" << (result.sat ? "true" : "false") << ",\"exhaustive\":"
     << (result.stats.truncated ? "false" : "true")
     << ",\"witness_replayed\":" << (replayed ? "true" : "false") << "},";

  // Schedule-dependent tallies (cache hits/misses) are deliberately
  // excluded: this document is byte-identical at any --jobs width.
  os << "\"stats\":{\"frames\":" << result.stats.frames
     << ",\"infeasible\":" << result.stats.infeasible
     << ",\"cycle_pruned\":" << result.stats.cycle_pruned
     << ",\"solver_queries\":" << result.stats.solver_queries
     << ",\"paths\":" << result.paths.size() << "},";

  os << "\"paths\":[";
  for (std::size_t i = 0; i < result.paths.size(); ++i) {
    if (i != 0) os << ",";
    os << "{\"hops\":[";
    for (std::size_t k = 0; k < result.paths[i].hops.size(); ++k) {
      if (k != 0) os << ",";
      append_hop(os, result.paths[i].hops[k]);
    }
    os << "]}";
  }
  os << "],";

  os << "\"witness\":";
  if (!replayed) {
    os << "null";
  } else {
    os << "{\"from\":\"" << obs::json_escape(witness->from) << "\",\"to\":\""
       << obs::json_escape(witness->to) << "\",\"replay\":\"consistent\","
       << "\"hops\":[";
    for (std::size_t i = 0; i < replay->hops.size(); ++i) {
      const ReplayedHop& h = replay->hops[i];
      if (i != 0) os << ",";
      os << "{\"node\":\"" << obs::json_escape(h.hop.node)
         << "\",\"entry\":" << h.hop.entry << ",\"out_port\":" << h.out_port
         << ",\"input\":";
      append_packet(os, h.input);
      os << "}";
    }
    os << "],\"egress\":";
    append_packet(os, replay->egress);
    os << "}";
  }
  os << "}";
  return os.str();
}

}  // namespace nfactor::verify
