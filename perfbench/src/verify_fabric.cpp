// verify_fabric: the three acceptance queries over the 18-instance
// examples/datacenter.topo fabric, in a seeded order per round, at
// jobs=1. Each query gets a fresh SolverCache, as one nf-verify call
// would; a SAT reach is followed by find_witness and its three-backend
// replay. One operation is one query plus its witness.
//
// Checks: all three verdicts HOLD, the reach witness replays
// consistently, and the deterministic stats (paths, frames, infeasible,
// solver queries) equal tests/golden/topology/datacenter_*.json.
#include <fstream>
#include <numeric>
#include <optional>
#include <random>
#include <sstream>
#include <stdexcept>

#include "common.h"
#include "lang/parser.h"
#include "nfs/corpus.h"
#include "symex/solver.h"
#include "verify/topology.h"
#include "verify/witness.h"

namespace perfbench {

namespace {

struct QuerySpec {
  const char* kind;
  const char* spec;
  const char* golden;  ///< under tests/golden/topology/, or nullptr
};

const QuerySpec kQueries[] = {
    {"reach", "reach cust_a web_out", "datacenter_reach_web.json"},
    {"isolate", "isolate cust_a quarantine where pkt.ip_proto != 6", nullptr},
    {"waypoint", "waypoint cust_a web_out via syn_guard",
     "datacenter_waypoint.json"},
};
constexpr std::size_t kNumQueries = std::size(kQueries);

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("perfbench: cannot read " + path);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

/// The unsigned integer after "key": in the golden's "stats" object.
std::uint64_t golden_stat(const std::string& doc, const std::string& key) {
  const std::size_t stats = doc.find("\"stats\":{");
  const std::size_t at = doc.find("\"" + key + "\":", stats);
  if (stats == std::string::npos || at == std::string::npos) {
    throw std::runtime_error("perfbench: golden lacks stats." + key);
  }
  return std::stoull(doc.substr(at + key.size() + 3));
}

struct Expected {
  bool known = false;
  std::uint64_t paths = 0, frames = 0, infeasible = 0, solver_queries = 0;
};

struct Fabric {
  std::map<std::string, nfactor::pipeline::PipelineResult> models;
  nfactor::verify::Topology topo;
};

}  // namespace

Report run_verify_fabric(const Options& opts, Spans& spans) {
  namespace verify = nfactor::verify;
  const Budget budget(opts.seconds);
  Report rep;

  std::vector<verify::Query> queries;
  std::vector<Expected> expected(kNumQueries);
  for (std::size_t q = 0; q < kNumQueries; ++q) {
    queries.push_back(verify::parse_query(kQueries[q].spec));
    if (kQueries[q].golden == nullptr) continue;
    const std::string doc = read_file(opts.root + "/tests/golden/topology/" +
                                      kQueries[q].golden);
    expected[q] = {true, golden_stat(doc, "paths"), golden_stat(doc, "frames"),
                   golden_stat(doc, "infeasible"),
                   golden_stat(doc, "solver_queries")};
  }
  if (opts.plant_fault) expected[0].paths += 1;

  std::unique_ptr<Fabric> fabric;
  std::vector<double> parse_topology_ms;
  // Set-up: read the .topo file, synthesize its NFs, parse the topology.
  const auto setup = [&](int r) {
    SpansState state(spans, opts.trace && r == 0);
    auto f = std::make_unique<Fabric>();
    const std::string text = read_file(opts.root + "/examples/datacenter.topo");
    double resolve_ms = 0.0;
    const auto resolve = [&](const std::string& nf) -> verify::NodeModels {
      auto it = f->models.find(nf);
      if (it == f->models.end()) {
        const auto t0 = Clock::now();
        const auto& entry = nfactor::nfs::find(nf);
        nfactor::lang::Program prog = [&] {
          auto sp = spans.scope("lang::parse");
          return nfactor::lang::parse(entry.source, nf);
        }();
        auto sp = spans.scope("pipeline::run");
        it = f->models.emplace(nf, nfactor::pipeline::run(prog, production_options()))
                 .first;
        resolve_ms += ms_between(t0, Clock::now());
      }
      return {&it->second.model, it->second.module.get()};
    };
    const auto t0 = Clock::now();
    {
      auto sp = spans.scope("verify::parse_topology");
      f->topo = verify::parse_topology(text, resolve);
    }
    parse_topology_ms.push_back(ms_between(t0, Clock::now()) - resolve_ms);
    if (r == 0) fabric = std::move(f);
  };
  SetupReps setups(opts.setup_reps, budget, 1.0);
  setups.run_due(setup);
  const verify::Topology& topo = fabric->topo;

  ItemSamples samples(kNumQueries);
  std::vector<std::vector<double>> query_ms(kNumQueries);
  std::vector<double> witness_ms;
  struct Counts {
    std::uint64_t frames = 0, infeasible = 0, solver_queries = 0, hits = 0,
                  misses = 0;
  };
  std::vector<Counts> counts(kNumQueries);

  std::vector<std::size_t> order(kNumQueries);
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::mt19937_64 rng(opts.seed);
  // Timed rounds after the warm one: as in synth_corpus.
  const std::size_t min_rounds = opts.trace ? 2 : 1;
  std::size_t rounds = 0;
  for (std::size_t round = 0; round <= min_rounds || !budget.spent(); ++round) {
    rounds = round;
    const bool warm = round == 0;
    const bool traced = opts.trace && round % 2 == 1;
    spans.set_enabled(traced);
    std::shuffle(order.begin(), order.end(), rng);
    for (const std::size_t q : order) {
      if (!warm) setups.run_due(setup);
      nfactor::symex::SolverCache cache;
      verify::QueryOptions qopts;
      qopts.jobs = 1;
      qopts.solver_cache = &cache;
      verify::ReplayReport replay;
      std::optional<verify::Witness> witness;
      const auto t0 = Clock::now();
      auto t1 = t0;
      std::optional<verify::QueryResult> res;
      {
        auto sp = spans.scope("query");
        {
          auto sq = spans.scope("verify::run_query");
          res = verify::run_query(topo, queries[q], qopts);
        }
        t1 = Clock::now();
        if (queries[q].kind == verify::QueryKind::kReach && res->sat) {
          auto sw = spans.scope("verify::find_witness");
          witness = verify::find_witness(topo, *res, &replay);
        }
      }
      const auto t2 = Clock::now();

      const verify::QueryResult& r = *res;
      const Expected& e = expected[q];
      bool ok = r.holds;
      if (queries[q].kind == verify::QueryKind::kReach) {
        ok = ok && witness.has_value() && replay.consistent;
      } else {
        ok = ok && !r.stats.truncated;
      }
      if (e.known) {
        ok = ok && r.paths.size() == e.paths && r.stats.frames == e.frames &&
             r.stats.infeasible == e.infeasible &&
             r.stats.solver_queries == e.solver_queries;
      }
      rep.tally.record(ok);
      if (warm) continue;
      samples.add(q, ms_between(t0, t2), traced);
      if (!traced) {
        query_ms[q].push_back(ms_between(t0, t1));
        if (witness.has_value()) witness_ms.push_back(ms_between(t1, t2));
      }
      const auto cs = cache.stats();
      counts[q] = {r.stats.frames, r.stats.infeasible, r.stats.solver_queries,
                   cs.hits, cs.misses};
    }
    spans.set_enabled(false);
    spans.drain();
    if (warm) rep.peak_rss_mb = peak_rss_mb();
  }
  setups.run_due(setup);
  rep.setup_s = setups.median_s();

  samples.summarize(rep);
  const auto pct = static_cast<int>(rep.tail_pct);
  rep.named.push_back({"query_ms_p50", rep.op_ms_p50, "ms"});
  if (pct > 50) {
    rep.named.push_back({"query_ms_p" + std::to_string(pct), rep.run_tail, "ms"});
  }

  Counts total;
  for (std::size_t q = 0; q < kNumQueries; ++q) {
    rep.layers.push_back({std::string("verify.") + kQueries[q].kind + "_ms",
                          median(query_ms[q]), "ms"});
    total.frames += counts[q].frames;
    total.infeasible += counts[q].infeasible;
    total.solver_queries += counts[q].solver_queries;
    total.hits += counts[q].hits;
    total.misses += counts[q].misses;
  }
  const auto d = [](auto v) { return static_cast<double>(v); };
  rep.layers.push_back({"verify.witness_ms", median(witness_ms), "ms"});
  rep.layers.push_back({"verify.frames", d(total.frames), "count"});
  rep.layers.push_back({"verify.infeasible", d(total.infeasible), "count"});
  rep.layers.push_back({"verify.solver_queries", d(total.solver_queries), "count"});
  rep.layers.push_back({"verify.solver_cache_hit_rate",
                        total.hits + total.misses == 0
                            ? 0.0
                            : d(total.hits) / d(total.hits + total.misses),
                        "ratio"});
  rep.layers.push_back({"verify.parse_topology_ms", median(parse_topology_ms), "ms"});
  rep.notes.push_back(std::to_string(rounds) +
                      " rounds x 3 queries, jobs=1, fresh SolverCache per "
                      "query, one warm round; " +
                      std::to_string(topo.nodes.size()) + " instances");
  return rep;
}

}  // namespace perfbench
