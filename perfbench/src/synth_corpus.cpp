// synth_corpus: every corpus NF from source text to a tier-2 engine, in a
// seeded order per round. One operation is one synthesis: lang::parse,
// pipeline::run (simplify + fold_config, jobs=1, as nf-synth runs it),
// model::initial_store, dataplane::compile and the DataplaneEngine
// constructor. No packets run.
//
// Checks: every synthesis renders the same model table and compiled
// table as the setup's, and no SE run is degraded. Setup also runs the
// model against the DSL runtime (verify::differential_test).
#include <algorithm>
#include <numeric>
#include <random>

#include "common.h"
#include "dataplane/threaded.h"
#include "netsim/packet_gen.h"
#include "nfs/corpus.h"
#include "verify/equivalence.h"

namespace perfbench {

namespace {

constexpr int kDiffPackets = 300;
constexpr int kDiffFlows = 8;

struct Reference {
  std::string model_table;
  std::string compiled_text;
};

struct Stages {
  std::vector<double> parse, lower, simplify, slicing, se_slice, model, self,
      compile, engine;
};

double sum_of_medians(const std::vector<Stages>& per_nf,
                      std::vector<double> Stages::*field) {
  double sum = 0.0;
  for (const auto& s : per_nf) sum += median(s.*field);
  return sum;
}

}  // namespace

Report run_synth_corpus(const Options& opts, Spans& spans) {
  namespace nfs = nfactor::nfs;
  const Budget budget(opts.seconds);
  Report rep;
  const auto& corpus = nfs::corpus();
  const std::size_t n = corpus.size();

  // Set-up: synthesize the corpus once, keep its renderings as the
  // reference, and run each model against the DSL runtime. Later
  // repetitions must reproduce the reference.
  std::vector<Reference> refs(n);
  const auto setup = [&](int r) {
    SpansState state(spans, opts.trace && r == 0);
    for (std::size_t i = 0; i < n; ++i) {
      const auto s = synthesize(corpus[i].name, corpus[i].source, spans);
      Reference ref{nfactor::model::to_table(s->r.model), s->table.to_text()};
      nfactor::netsim::PacketGen gen(opts.seed * 1000003u + i);
      std::vector<nfactor::netsim::Packet> packets = gen.batch(kDiffPackets);
      for (int f = 0; f < kDiffFlows; ++f) {
        const auto flow = gen.handshake_flow(4);
        packets.insert(packets.end(), flow.begin(), flow.end());
      }
      const auto diff = nfactor::verify::differential_test(
          *s->r.module, s->r.cats, s->r.model, packets);
      bool ok = diff.ok() && !s->r.degraded();
      if (r == 0) {
        refs[i] = std::move(ref);
      } else {
        ok = ok && ref.model_table == refs[i].model_table &&
             ref.compiled_text == refs[i].compiled_text;
      }
      rep.tally.record(ok);
    }
    if (r == 0 && opts.plant_fault) refs[0].model_table += "#";
  };

  struct Counts {
    std::size_t cfg_nodes = 0, union_nodes = 0, paths = 0, entries = 0,
                fdd_nodes = 0, generic_ops = 0;
    std::uint64_t solver_queries = 0, cache_hits = 0, cache_misses = 0;
  };
  std::vector<Counts> counts(n);
  std::vector<Stages> stages(n);
  ItemSamples samples(n);

  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::mt19937_64 rng(opts.seed);
  // Timed rounds after the warm one: until the budget is spent, and at
  // least one (two in a traced run, one with spans and one without).
  const std::size_t min_rounds = opts.trace ? 2 : 1;
  SetupReps setups(opts.setup_reps, budget, 1.0);
  setups.run_due(setup);
  std::size_t rounds = 0;
  for (std::size_t round = 0; round <= min_rounds || !budget.spent(); ++round) {
    rounds = round;
    const bool warm = round == 0;
    const bool traced = opts.trace && round % 2 == 1;
    spans.set_enabled(traced);
    std::shuffle(order.begin(), order.end(), rng);
    for (const std::size_t i : order) {
      if (!warm) setups.run_due(setup);
      std::unique_ptr<Synthesized> s;
      {
        auto sp = spans.scope("synth");
        s = synthesize(corpus[i].name, corpus[i].source, spans);
      }
      const bool ok = !s->r.degraded() &&
                      nfactor::model::to_table(s->r.model) ==
                          refs[i].model_table &&
                      s->table.to_text() == refs[i].compiled_text;
      rep.tally.record(ok);
      if (warm) continue;
      samples.add(i, s->total_ms, traced);
      if (!traced) {
        const auto& t = s->r.times;
        Stages& st = stages[i];
        st.parse.push_back(s->parse_ms);
        st.lower.push_back(t.lower_ms);
        st.simplify.push_back(t.simplify_ms);
        st.slicing.push_back(t.slicing_ms);
        st.se_slice.push_back(t.se_slice_ms);
        st.model.push_back(t.model_ms);
        st.self.push_back(t.total_ms - t.lower_ms - t.simplify_ms -
                          t.slicing_ms - t.se_slice_ms - t.model_ms);
        st.compile.push_back(s->compile_ms);
        st.engine.push_back(s->engine_ms);
      }
      if (round == 1) {  // the counts are the same in every round
        const auto& r = s->r;
        counts[i] = {r.module->body.size(),
                     r.union_slice.size(),
                     r.slice_paths.size(),
                     r.model.entries.size(),
                     s->table.stats.nodes,
                     nfactor::dataplane::lower_threaded(s->table).generic_ops,
                     r.slice_stats.solver_queries,
                     r.slice_stats.cache_hits,
                     r.slice_stats.cache_misses};
      }
    }
    spans.set_enabled(false);
    spans.drain();
    if (warm) rep.peak_rss_mb = peak_rss_mb();
  }
  setups.run_due(setup);
  rep.setup_s = setups.median_s();

  samples.summarize(rep);
  const auto pct = static_cast<int>(rep.tail_pct);
  rep.named.push_back({"synth_ms_p50", rep.op_ms_p50, "ms"});
  if (pct > 50) {
    rep.named.push_back({"synth_ms_p" + std::to_string(pct), rep.run_tail, "ms"});
  }

  // Layer times: the sum over the corpus of each NF's median, i.e. the
  // milliseconds that layer costs per pass over the corpus.
  rep.layers.push_back({"lang.parse_ms", sum_of_medians(stages, &Stages::parse), "ms"});
  rep.layers.push_back({"pipeline.lower_ms", sum_of_medians(stages, &Stages::lower), "ms"});
  rep.layers.push_back({"lint.simplify_ms", sum_of_medians(stages, &Stages::simplify), "ms"});
  rep.layers.push_back({"analysis.slicing_ms", sum_of_medians(stages, &Stages::slicing), "ms"});
  rep.layers.push_back({"symex.se_slice_ms", sum_of_medians(stages, &Stages::se_slice), "ms"});
  rep.layers.push_back({"model.build_ms", sum_of_medians(stages, &Stages::model), "ms"});
  rep.layers.push_back({"pipeline.self_ms", sum_of_medians(stages, &Stages::self), "ms"});
  rep.layers.push_back({"dataplane.compile_ms", sum_of_medians(stages, &Stages::compile), "ms"});
  rep.layers.push_back({"dataplane.engine_build_ms", sum_of_medians(stages, &Stages::engine), "ms"});

  Counts total;
  for (const auto& c : counts) {
    total.cfg_nodes += c.cfg_nodes;
    total.union_nodes += c.union_nodes;
    total.paths += c.paths;
    total.entries += c.entries;
    total.fdd_nodes += c.fdd_nodes;
    total.generic_ops += c.generic_ops;
    total.solver_queries += c.solver_queries;
    total.cache_hits += c.cache_hits;
    total.cache_misses += c.cache_misses;
  }
  const auto d = [](auto v) { return static_cast<double>(v); };
  const std::uint64_t lookups = total.cache_hits + total.cache_misses;
  rep.layers.push_back({"ir.cfg_nodes", d(total.cfg_nodes), "count"});
  rep.layers.push_back({"analysis.slice_ratio",
                        total.cfg_nodes == 0 ? 0.0 : d(total.union_nodes) / d(total.cfg_nodes),
                        "ratio"});
  rep.layers.push_back({"symex.paths", d(total.paths), "count"});
  rep.layers.push_back({"symex.solver_queries", d(total.solver_queries), "count"});
  rep.layers.push_back({"symex.solver_cache_hit_rate",
                        lookups == 0 ? 0.0 : d(total.cache_hits) / d(lookups), "ratio"});
  rep.layers.push_back({"model.entries", d(total.entries), "count"});
  rep.layers.push_back({"dataplane.fdd_nodes", d(total.fdd_nodes), "count"});
  rep.layers.push_back({"dataplane.generic_ops", d(total.generic_ops), "count"});
  for (std::size_t i = 0; i < n; ++i) {
    rep.layers.push_back({"synth." + std::string(corpus[i].name) + ".ms_p50",
                          median(samples.plain[i]), "ms"});
  }
  rep.notes.push_back(std::to_string(rounds) + " rounds x " + std::to_string(n) +
                      " NFs, seeded order per round, one warm round");
  return rep;
}

}  // namespace perfbench
