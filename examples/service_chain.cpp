// Service-chain example (paper §4): extract models for a firewall, an
// IDS and a load balancer, let the PGA-style composer order the chain,
// then verify end-to-end reachability properties of the composed chain
// as a path topology (verify/topology.h).
#include <cstdio>
#include <map>
#include <sstream>
#include <string>

#include "nfactor/pipeline.h"
#include "nfs/corpus.h"
#include "verify/chain.h"
#include "verify/topology.h"

int main() {
  using namespace nfactor;

  // 1. Extract models straight from the NF sources.
  const auto fw = pipeline::run_source(nfs::find("firewall").source, "fw");
  const auto ids = pipeline::run_source(nfs::find("snort_lite").source, "ids");
  const auto lb = pipeline::run_source(nfs::find("lb").source, "lb");
  std::printf("extracted models: fw=%zu entries, ids=%zu, lb=%zu\n\n",
              fw.model.entries.size(), ids.model.entries.size(),
              lb.model.entries.size());

  // 2. Compose the policies {FW, IDS} + {LB}: which order is right?
  const auto advice = verify::advise_order(
      {{"lb", &lb.model}, {"fw", &fw.model}, {"ids", &ids.model}});
  std::printf("composition advice:\n");
  for (const auto& c : advice.constraints) {
    std::printf("  %s must precede %s (it matches %s, which %s rewrites)\n",
                c.before.c_str(), c.after.c_str(), c.field.c_str(),
                c.after.c_str());
  }
  std::printf("  => order: ");
  for (std::size_t i = 0; i < advice.order.size(); ++i) {
    std::printf("%s%s", i ? " -> " : "", advice.order[i].c_str());
  }
  std::printf("\n\n");

  // 3. Verify the composed chain, a path topology: each hop's emissions
  //    feed the next hop's port 0, and the IDS is pinned to inline-drop.
  const std::map<std::string, std::string> node_spec = {
      {"fw", "firewall"}, {"ids", "snort_lite cfg INLINE_DROP=1"}, {"lb", "lb"}};
  const std::map<std::string, const pipeline::PipelineResult*> models = {
      {"firewall", &fw}, {"snort_lite", &ids}, {"lb", &lb}};
  std::ostringstream topo_text;
  for (std::size_t i = 0; i < advice.order.size(); ++i) {
    const std::string& id = advice.order[i];
    topo_text << "node " << id << " " << node_spec.at(id) << "\n";
    if (i == 0) topo_text << "ingress in -> " << id << ":*\n";
    if (i > 0) topo_text << "edge " << advice.order[i - 1] << ":* -> " << id << ":0\n";
  }
  topo_text << "egress out <- " << advice.order.back() << ":*\n";
  const verify::Topology chain = verify::parse_topology(
      topo_text.str(), [&](const std::string& nf) -> verify::NodeModels {
        const pipeline::PipelineResult* r = models.at(nf);
        return {&r->model, r->module.get()};
      });

  verify::QueryOptions opts;
  opts.max_paths = 16;
  const auto telnet = verify::run_query(
      chain, verify::parse_query("reach in out where pkt.ip_proto == 6 && "
                                 "pkt.dport == 23"),
      opts);
  const auto web = verify::run_query(
      chain, verify::parse_query("reach in out where pkt.ip_proto == 6 && "
                                 "pkt.dport == 80 && pkt.in_port == 0"),
      opts);

  std::printf("chain verification:\n");
  std::printf("  telnet reaches egress: %s (want: no)\n",
              telnet.sat ? "YES - POLICY VIOLATION" : "no");
  std::printf("  web traffic reaches egress: %s via %zu feasible path(s) "
              "(want: yes)\n",
              web.sat ? "yes" : "NO - BROKEN CHAIN", web.paths.size());

  // Show one end-to-end path with the transformed header.
  if (web.sat) {
    const auto& p = web.paths.front();
    std::printf("\n  example end-to-end path (entry per hop:");
    for (const auto& h : p.hops) std::printf(" %s:%d", h.node.c_str(), h.entry);
    std::printf("), egress header:\n");
    for (const auto& [field, expr] : p.egress_fields) {
      // Only show fields the chain actually rewrote.
      if (expr->kind == symex::SymKind::kVar && expr->str_val == field) continue;
      std::printf("    %s = %s\n", field.c_str(),
                  symex::to_string(*expr).c_str());
    }
  }
  return 0;
}
