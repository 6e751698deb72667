// nf-verify — network-scale topology verification with concrete witness
// replay (docs/verification.md). Loads a .topo file whose nodes name
// corpus NFs (or .nf file paths), synthesizes each distinct NF's model
// once in-process (once more without config folding if an instance pins
// its config), then answers reachability / isolation / waypoint
// queries over the instance graph. Every SAT verdict is backed, when
// possible, by a concrete witness packet replayed hop-by-hop through
// the model interpreter, the wire codec and the compiled dataplane.
//
//   nf-verify --topology FILE --query SPEC [--query SPEC ...]
//             [--witness-out FILE] [--json-out FILE] [--jobs N]
//             [--max-hops N] [--max-paths N] [--quiet] [--metrics]
//
// --json-out writes one deterministic nfactor-topology-v1 document per
// query, one per line (byte-identical at any --jobs width — the CI
// determinism gate diffs exactly this file across widths).
// --witness-out writes the first replayed witness as a netsim trace.
// Exit code: 0 = every query holds, 1 = some query violated (or a
// witness failed to replay), 2 = usage / file / synthesis error.
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "cli_common.h"
#include "nfactor/pipeline.h"
#include "nfs/corpus.h"
#include "obs/obs.h"
#include "verify/topology.h"
#include "verify/witness.h"

namespace {

int usage() {
  std::fprintf(
      stderr,
      "usage: nf-verify --topology FILE --query SPEC [--query SPEC ...]\n"
      "                 [--witness-out FILE] [--json-out FILE] [--jobs N]\n"
      "                 [--max-hops N] [--max-paths N] [--quiet] [--metrics]\n"
      "Topology file format (docs/verification.md):\n"
      "  node <id> <nf> [cfg NAME=VALUE]...   # nf: corpus name or .nf path\n"
      "  edge <a>:<port|*> -> <b>:<port>\n"
      "  ingress <name> -> <node>:<port|*>\n"
      "  egress <name> <- <node>:<port|*>\n"
      "Query spec:\n"
      "  reach|isolate|waypoint <from> <to> [via <node>]\n"
      "      [where pkt.<field> OP <value> && ...]\n"
      "Exit: 0 = all queries hold, 1 = violation, 2 = usage error.\n");
  return 2;
}

bool parse_int(const std::string& s, int min, int& out) {
  try {
    std::size_t pos = 0;
    out = std::stoi(s, &pos);
    return pos == s.size() && out >= min;
  } catch (const std::exception&) {
    return false;
  }
}

/// Synthesizes each distinct NF once per folding mode; results live here
/// so model/module pointers stay stable for the Topology's lifetime.
/// Production settings match nf-synth: simplify with config folding, so
/// models match the documented corpus tables. An instance with `cfg`
/// pins needs its config symbolic, so it gets the model without folding.
class Synthesizer {
 public:
  explicit Synthesizer(int jobs) : jobs_(jobs) {}

  nfactor::verify::NodeModels resolve(const std::string& nf, bool fold_config) {
    const auto key = std::make_pair(nf, fold_config);
    const auto it = cache_.find(key);
    if (it != cache_.end()) {
      return {&it->second.model, it->second.module.get()};
    }
    std::string source;
    if (nf.size() > 3 && nf.ends_with(".nf")) {
      std::ifstream in(nf);
      if (!in) return {};
      std::ostringstream ss;
      ss << in.rdbuf();
      source = ss.str();
    } else {
      try {
        source = std::string(nfactor::nfs::find(nf).source);
      } catch (const std::exception&) {
        return {};
      }
    }
    nfactor::pipeline::PipelineOptions opts;
    opts.jobs = jobs_;
    opts.simplify.enabled = true;
    opts.simplify.fold_config = fold_config;
    auto result = nfactor::pipeline::run_source(source, nf, opts);
    const auto [pos, _] = cache_.emplace(key, std::move(result));
    return {&pos->second.model, pos->second.module.get()};
  }

 private:
  int jobs_;
  std::map<std::pair<std::string, bool>, nfactor::pipeline::PipelineResult>
      cache_;
};

}  // namespace

int main(int argc, char** argv) {
  using namespace nfactor;

  std::string topo_path;
  std::vector<std::string> query_specs;
  std::string witness_out;
  std::string json_out;
  verify::QueryOptions qopts;
  bool quiet = false;
  bool metrics = false;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto need_value = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "error: %s needs a value\n", flag);
        return nullptr;
      }
      return argv[++i];
    };
    if (arg == "--topology") {
      const char* v = need_value("--topology");
      if (v == nullptr) return usage();
      topo_path = v;
    } else if (arg == "--query") {
      const char* v = need_value("--query");
      if (v == nullptr) return usage();
      query_specs.emplace_back(v);
    } else if (arg == "--witness-out") {
      const char* v = need_value("--witness-out");
      if (v == nullptr) return usage();
      witness_out = v;
    } else if (arg == "--json-out") {
      const char* v = need_value("--json-out");
      if (v == nullptr) return usage();
      json_out = v;
    } else if (arg == "--jobs") {
      const char* v = need_value("--jobs");
      if (v == nullptr || !parse_int(v, 0, qopts.jobs)) return usage();
    } else if (arg == "--max-hops") {
      const char* v = need_value("--max-hops");
      if (v == nullptr || !parse_int(v, 1, qopts.max_hops)) return usage();
    } else if (arg == "--max-paths") {
      const char* v = need_value("--max-paths");
      int n = 0;
      if (v == nullptr || !parse_int(v, 1, n)) return usage();
      qopts.max_paths = static_cast<std::size_t>(n);
    } else if (arg == "--quiet") {
      quiet = true;
    } else if (arg == "--metrics") {
      metrics = true;
    } else {
      return nfcli::unknown_flag(arg, usage);
    }
  }
  if (topo_path.empty() || query_specs.empty()) return usage();

  std::ifstream in(topo_path);
  if (!in) {
    std::fprintf(stderr, "error: cannot read '%s'\n", topo_path.c_str());
    return 2;
  }
  std::ostringstream ss;
  ss << in.rdbuf();

  Synthesizer synth(qopts.jobs);
  verify::Topology topo;
  try {
    topo = verify::parse_topology(
        ss.str(),
        [&](const std::string& nf) { return synth.resolve(nf, true); },
        [&](const std::string& nf) { return synth.resolve(nf, false); });
  } catch (const std::exception& ex) {
    std::fprintf(stderr, "error: %s\n", ex.what());
    return 2;
  }
  if (!quiet) {
    std::printf("topology: %zu instances, %zu links, %zu ingress, %zu egress\n",
                topo.nodes.size(), topo.edges.size(), topo.ingress.size(),
                topo.egress.size());
  }

  symex::SolverCache cache;
  qopts.solver_cache = &cache;

  std::ofstream json_file;
  if (!json_out.empty()) {
    json_file.open(json_out);
    if (!json_file) {
      std::fprintf(stderr, "error: cannot write '%s'\n", json_out.c_str());
      return 2;
    }
  }

  bool all_hold = true;
  bool wrote_witness = false;
  for (const std::string& spec : query_specs) {
    verify::Query q;
    verify::QueryResult result;
    try {
      q = verify::parse_query(spec);
      result = verify::run_query(topo, q, qopts);
    } catch (const std::exception& ex) {
      std::fprintf(stderr, "error: %s\n", ex.what());
      return 2;
    }

    verify::ReplayReport replay;
    std::optional<verify::Witness> witness;
    if (result.sat) {
      witness = verify::find_witness(topo, result, &replay);
    }

    if (!quiet) {
      std::printf("\nquery: %s\n", spec.c_str());
      std::printf("  verdict: %s (%s, %s)\n",
                  result.holds ? "HOLDS" : "VIOLATED",
                  result.sat ? "sat" : "unsat",
                  result.stats.truncated ? "truncated" : "exhaustive");
      std::printf(
          "  frames: %zu, infeasible: %zu, paths: %zu, solver queries: %llu\n",
          result.stats.frames, result.stats.infeasible, result.paths.size(),
          static_cast<unsigned long long>(result.stats.solver_queries));
      if (result.sat) {
        if (witness) {
          std::printf("  witness: replayed %zu hop(s) consistently "
                      "(model + dataplane + wire codec)\n",
                      replay.hops.size());
          for (const auto& h : replay.hops) {
            std::printf("    %s entry %d -> port %d: %s\n", h.hop.node.c_str(),
                        h.hop.entry, h.out_port,
                        netsim::to_string(h.input).c_str());
          }
          std::printf("    egress: %s\n",
                      netsim::to_string(replay.egress).c_str());
        } else {
          std::printf("  witness: none of %zu path(s) materialized "
                      "(state-dependent or non-invertible)\n",
                      result.paths.size());
        }
      }
    }

    if (json_file.is_open()) {
      json_file << verify::topology_json(topo, result,
                                         witness ? &*witness : nullptr,
                                         witness ? &replay : nullptr)
                << "\n";
    }
    if (!witness_out.empty() && witness && !wrote_witness) {
      try {
        verify::write_witness_trace(witness_out, replay);
        wrote_witness = true;
        if (!quiet) {
          std::printf("  witness trace written to %s\n", witness_out.c_str());
        }
      } catch (const std::exception& ex) {
        std::fprintf(stderr, "error: %s\n", ex.what());
        return 2;
      }
    }

    if (!result.holds) all_hold = false;
    // A SAT reach verdict without a replayable witness is unproven —
    // surface it as a failure so CI gates on it.
    if (result.holds && result.sat && !witness) all_hold = false;
  }

  if (metrics) {
    auto& reg = obs::default_registry();
    const auto stats = cache.stats();
    const double rate =
        stats.hits + stats.misses > 0
            ? static_cast<double>(stats.hits) /
                  static_cast<double>(stats.hits + stats.misses)
            : 0.0;
    std::printf("\nmetrics:\n");
    std::printf("  verify.topology.queries: %llu\n",
                static_cast<unsigned long long>(
                    reg.counter("verify.topology.queries")));
    std::printf("  verify.topology.frames: %llu\n",
                static_cast<unsigned long long>(
                    reg.counter("verify.topology.frames")));
    std::printf("  verify.topology.solver.queries: %llu\n",
                static_cast<unsigned long long>(
                    reg.counter("verify.topology.solver.queries")));
    std::printf("  verify.topology.witnesses: %llu\n",
                static_cast<unsigned long long>(
                    reg.counter("verify.topology.witnesses")));
    std::printf("  solver cache: %llu hits / %llu misses (hit rate %.2f)\n",
                static_cast<unsigned long long>(stats.hits),
                static_cast<unsigned long long>(stats.misses), rate);
  }

  return all_hold ? 0 : 1;
}
