#include "common.h"

#include <fstream>

#include "lang/parser.h"
#include "model/interp.h"

namespace perfbench {

namespace dp = nfactor::dataplane;

const std::vector<std::pair<std::string, Workload>>& workloads() {
  static const std::vector<std::pair<std::string, Workload>> all = {
      {"synth_corpus", run_synth_corpus},
      {"verify_fabric", run_verify_fabric},
      {"dp_filter", run_dp_filter},
      {"dp_stateful", run_dp_stateful},
  };
  return all;
}

std::unique_ptr<Synthesized> synthesize(std::string_view name,
                                        std::string_view source, Spans& spans) {
  auto s = std::make_unique<Synthesized>();
  const auto t0 = Clock::now();
  nfactor::lang::Program prog = [&] {
    auto sp = spans.scope("lang::parse");
    return nfactor::lang::parse(source, std::string(name));
  }();
  const auto t1 = Clock::now();
  {
    auto sp = spans.scope("pipeline::run");
    s->r = nfactor::pipeline::run(prog, production_options());
  }
  const auto t2 = Clock::now();
  {
    auto sp = spans.scope("dataplane::compile");
    s->store = nfactor::model::initial_store(*s->r.module);
    dp::CompileOptions copts;
    copts.bindings = &s->store;
    s->table = dp::compile(s->r.model, copts);
  }
  const auto t3 = Clock::now();
  {
    auto sp = spans.scope("DataplaneEngine::DataplaneEngine");
    s->engine = std::make_unique<dp::DataplaneEngine>(
        s->table, s->store, dp::EngineOptions{dp::Tier::kThreaded});
  }
  const auto t4 = Clock::now();
  s->parse_ms = ms_between(t0, t1);
  s->compile_ms = ms_between(t2, t3);
  s->engine_ms = ms_between(t3, t4);
  s->total_ms = ms_between(t0, t4);
  return s;
}

void ItemSamples::summarize(Report& rep) const {
  std::size_t n = plain.empty() ? 0 : plain.front().size();
  for (const auto& s : plain) n = std::min(n, s.size());
  rep.samples_per_item = n;
  rep.blocks = block_count(n);
  rep.op_ms_p50 = quietest_block_median(plain, &rep.quietest_block);
  rep.run_p50 = geomean(per_item(plain, 50.0));
  rep.tail_pct = tail_percentile(n);
  rep.run_tail = geomean(per_item(plain, rep.tail_pct));

  bool any_traced = false;
  for (const auto& s : traced) any_traced = any_traced || !s.empty();
  if (any_traced && rep.run_p50 > 0.0) {
    const double traced_p50 = geomean(per_item(traced, 50.0));
    rep.layers.push_back(
        {"trace.overhead_pct", (traced_p50 / rep.run_p50 - 1.0) * 100.0, "%"});
  }
}

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;
  }
  return 0.0;
}

std::size_t map_entries(
    const std::map<std::string, nfactor::runtime::Value>& store) {
  std::size_t n = 0;
  for (const auto& [name, v] : store) {
    if (v.is_map()) n += v.as_map().items.size();
  }
  return n;
}

}  // namespace perfbench
