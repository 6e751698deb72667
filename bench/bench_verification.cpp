// Reproduces the paper's §4 "Network Verification" application:
//  (1) model checking speed-up — symbolic execution over the extracted
//      model (its entries ARE the paths) versus over the original code;
//  (2) stateful header-space verification — each model entry as a
//      transfer function T(h, p, s), composed along a FW -> IDS -> LB
//      service chain (a path topology), answering reachability queries
//      with the solver.
#include <cstdio>

#include "bench/bench_util.h"
#include "verify/topology.h"

namespace {

using namespace nfactor;

/// FW -> IDS -> LB as a path topology over the corpus models (config
/// symbolic, so `ids_cfg` pins select the IDS table).
struct ChainModels {
  pipeline::PipelineResult fw = benchutil::run_nf("firewall");
  pipeline::PipelineResult ids = benchutil::run_nf("snort_lite");
  pipeline::PipelineResult lb = benchutil::run_nf("lb");

  verify::Topology chain(const std::string& ids_cfg) const {
    return verify::parse_topology(
        "node fw firewall\nnode ids snort_lite " + ids_cfg +
            "\nnode lb lb\ningress in -> fw:*\nedge fw:* -> ids:0\n"
            "edge ids:* -> lb:0\negress out <- lb:*\n",
        [this](const std::string& nf) -> verify::NodeModels {
          const auto& r = nf == "firewall" ? fw : nf == "lb" ? lb : ids;
          return {&r.model, r.module.get()};
        });
  }
};

void report() {
  std::printf("§4 Network Verification with NFactor models\n");
  benchutil::rule('=');

  // ---- (1) model-checking speed-up --------------------------------------
  std::printf("(1) model checking: SE cost, original code vs extracted model\n");
  std::printf("%-12s | %10s | %12s | %8s\n", "NF", "orig SE", "model entries",
              "speedup");
  benchutil::rule();
  for (const auto& name : {"snort_lite", "lb", "firewall"}) {
    pipeline::PipelineOptions opts;
    opts.run_orig_se = true;
    opts.se_orig.max_paths = 1024;
    const auto r = benchutil::run_nf(name, opts);
    // Checking a property on the model enumerates its entries — the work
    // already done once at extraction; per-query cost is the slice SE.
    char orig[32];
    std::snprintf(orig, sizeof(orig), "%s%.1fms",
                  r.orig_stats.hit_path_cap ? ">" : "", r.times.se_orig_ms);
    std::printf("%-12s | %10s | %9zu ea | %6.1fx\n", name, orig,
                r.model.entries.size(),
                r.times.se_orig_ms / std::max(0.01, r.times.se_slice_ms));
  }
  benchutil::rule();

  // ---- (2) stateful reachability over a chain ----------------------------
  std::printf("\n(2) stateful reachability: FW -> IDS(snort) -> LB chain\n");
  // Pin the IDS to its deployed inline-drop configuration; without the
  // pin, queries quantify over all configs (alert-only would forward).
  const ChainModels models;
  const verify::Topology chain = models.chain("cfg INLINE_DROP=1");

  struct Query {
    const char* what;
    const char* where;
    bool expected;
  };
  const Query queries[] = {
      {"any packet at all", "", true},
      {"LAN HTTP flow (dport 80, tcp)",
       " where pkt.dport == 80 && pkt.ip_proto == 6 && pkt.in_port == 0", true},
      {"telnet (tcp dport 23) must be blocked by IDS",
       " where pkt.dport == 23 && pkt.ip_proto == 6", false},
      {"tftp (udp dport 69) must be blocked by IDS",
       " where pkt.dport == 69 && pkt.ip_proto == 17", false},
  };

  std::printf("%-45s | %-9s | %s\n", "query (ingress constraint)", "result",
              "expected");
  benchutil::rule();
  verify::QueryOptions opts;
  opts.max_paths = 8;
  for (const auto& q : queries) {
    const auto res = verify::run_query(
        chain, verify::parse_query(std::string("reach in out") + q.where), opts);
    std::printf("%-45s | %-9s | %s  (%zu feasible, %zu infeasible pruned)\n",
                q.what, res.sat ? "REACHABLE" : "blocked",
                q.expected ? "reachable" : "blocked", res.paths.size(),
                res.stats.infeasible);
  }
  benchutil::rule();
  std::printf("\n");
}

void BM_ChainReachability(benchmark::State& state) {
  const ChainModels models;
  const verify::Topology chain = models.chain("");
  const verify::Query q = verify::parse_query("reach in out");
  verify::QueryOptions opts;
  opts.max_paths = 8;
  for (auto _ : state) {
    auto res = verify::run_query(chain, q, opts);
    benchmark::DoNotOptimize(res.paths.size());
  }
}
BENCHMARK(BM_ChainReachability)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  report();
  return nfactor::benchutil::bench_main(argc, argv);
}
