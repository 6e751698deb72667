// Dataplane engine throughput: compile every corpus NF's synthesized
// model (docs/dataplane.md) and push multi-million-packet batches
// through the engine's threaded code, next to the model interpreter
// processing the same traffic packet-by-packet. Emits dataplane.<nf>.pps
// and dataplane.<nf>.ns_per_packet gauges — the snort_lite/dpi values
// feed the CI perf-smoke gate (bench/perf_baseline.json).
//
// Also here: the shard sweep (ShardedDataplane at 1/2/4/8 shards,
// dataplane.<nf>.shards<N>.pps) and the payload-scan microbench that
// justifies the BMH crossover (dataplane.payload_scan.ns_per_kb).
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <thread>

#include "bench/bench_util.h"
#include "dataplane/engine.h"
#include "dataplane/sharded.h"
#include "model/interp.h"
#include "netsim/packet_gen.h"

namespace {

using namespace nfactor;
using Clock = std::chrono::steady_clock;

// NIC-ring-sized batches: the pool is replayed round-robin, like a
// driver recycling its descriptor ring, so both legs measure the same
// traffic under the same cache residency.
constexpr int kPoolSize = 32768;  // packets per execute_batch call
constexpr int kBatchRounds = 64;  // rounds -> 2.1M packets compiled
// The interpreter leg is short: eval_concrete's copy-on-store map
// semantics make its per-packet cost grow with the flow table, so a
// long run would mostly measure ever-bigger map copies. Measuring it
// young *understates* its cost — the reported speedup is conservative.
constexpr int kInterpPackets = 5000;

struct Compiled {
  pipeline::PipelineResult r;
  std::map<std::string, runtime::Value> store;
  dataplane::CompiledTable table;
};

Compiled compile_nf(const std::string& name) {
  // The nf-synth production path: simplify + config folding on, then
  // specialize the compile against the module's initial store.
  pipeline::PipelineOptions opts;
  opts.simplify.enabled = true;
  opts.simplify.fold_config = true;
  Compiled c{benchutil::run_nf(name, opts), {}, {}};
  c.store = model::initial_store(*c.r.module);
  dataplane::CompileOptions copts;
  copts.bindings = &c.store;
  c.table = dataplane::compile(c.r.model, copts);
  return c;
}

/// NFACTOR_BENCH_NF=<name> restricts the per-NF sections to one corpus
/// entry — a tight loop for chasing a single NF's regression without
/// sitting through the full sweep. Unset runs everything.
bool nf_selected(const std::string& nf) {
  const char* only = std::getenv("NFACTOR_BENCH_NF");
  return only == nullptr || nf == only;
}

const std::vector<netsim::Packet>& pool() {
  static const std::vector<netsim::Packet> p = [] {
    netsim::PacketGen gen(42);
    return gen.batch(kPoolSize);
  }();
  return p;
}


void report() {
  std::printf("Compiled dataplane vs model interpreter (%d-packet batches, "
              "%.1fM packets/NF)\n",
              kPoolSize, kPoolSize * kBatchRounds / 1e6);
  benchutil::rule('=');
  std::printf("%-12s | %5s | %9s | %11s | %11s | %7s\n", "NF", "nodes",
              "preds", "interp ns/p", "engine ns/p", "speedup");
  benchutil::rule();
  for (const auto& e : nfs::corpus()) {
    const std::string nf(e.name);
    if (!nf_selected(nf)) continue;
    const Compiled c = compile_nf(nf);

    model::ModelInterpreter interp(c.r.model, c.store);
    const auto t0 = Clock::now();
    for (int i = 0; i < kInterpPackets; ++i) {
      const auto out = interp.process(pool()[i % pool().size()]);
      benchmark::DoNotOptimize(out.matched_entry);
    }
    const auto t1 = Clock::now();
    const double interp_ns =
        std::chrono::duration<double, std::nano>(t1 - t0).count() /
        kInterpPackets;

    dataplane::DataplaneEngine eng(c.table, c.store);
    dataplane::BatchOutput out;
    eng.execute_batch(pool(), out);  // warm-up: constructs the send slots
    const auto b0 = Clock::now();
    for (int round = 0; round < kBatchRounds; ++round) {
      out.clear();
      eng.execute_batch(pool(), out);
      benchmark::DoNotOptimize(out.matched.data());
    }
    const auto b1 = Clock::now();
    const double compiled_ns =
        std::chrono::duration<double, std::nano>(b1 - b0).count() /
        (static_cast<double>(kPoolSize) * kBatchRounds);

    char preds[16];
    std::snprintf(preds, sizeof preds, "%zu/%zu", c.table.compiled_preds,
                  c.table.preds.size());
    std::printf("%-12s | %5zu | %9s | %11.1f | %11.1f | %6.1fx\n",
                nf.c_str(), c.table.nodes.size(), preds, interp_ns, compiled_ns,
                interp_ns / compiled_ns);

    OBS_GAUGE("dataplane." + nf + ".pps", 1e9 / compiled_ns);
    OBS_GAUGE("dataplane." + nf + ".ns_per_packet", compiled_ns);
    OBS_GAUGE("dataplane." + nf + ".interp_ns_per_packet", interp_ns);
    OBS_GAUGE("dataplane." + nf + ".speedup", interp_ns / compiled_ns);
  }
  benchutil::rule();
  std::printf("interp = ModelInterpreter::process per packet; engine =\n"
              "threaded code, one execute_batch per %d packets.\n"
              "Stateful NFs mutate real per-flow state throughout the run.\n\n",
              kPoolSize);
}

/// Shard sweep: aggregate throughput of ShardedDataplane at 1/2/4/8
/// shards. Aggregate pps counts every input packet once; the
/// per-batch partition/scatter cost is included, so shards=1 is slightly
/// below the raw single-engine number. Scaling beyond 1x needs real
/// cores — on a single-core container the sweep only measures pool
/// overhead (see docs/dataplane.md).
void shard_sweep() {
  std::printf("Sharded pipeline sweep (%d-packet batches, "
              "hardware threads: %u)\n",
              kPoolSize, std::thread::hardware_concurrency());
  benchutil::rule('=');
  std::printf("%-12s | %11s | %11s | %11s | %11s | %7s\n", "NF", "1-shard pps",
              "2-shard pps", "4-shard pps", "8-shard pps", "4sh/1sh");
  benchutil::rule();
  for (const std::string nf : {"snort_lite", "dpi", "nat"}) {
    if (!nf_selected(nf)) continue;
    const Compiled c = compile_nf(nf);
    double pps1 = 0, pps4 = 0;
    std::printf("%-12s |", nf.c_str());
    for (const int shards : {1, 2, 4, 8}) {
      dataplane::ShardOptions sopts;
      sopts.shards = shards;
      dataplane::ShardedDataplane sharded(c.table, c.store, sopts);
      dataplane::ShardedOutput out;
      sharded.execute_batch(pool(), out);  // warm-up
      const int rounds = kBatchRounds / 4;
      const auto t0 = Clock::now();
      for (int round = 0; round < rounds; ++round) {
        sharded.execute_batch(pool(), out);
        benchmark::DoNotOptimize(out.matched.data());
      }
      const auto t1 = Clock::now();
      const double ns =
          std::chrono::duration<double, std::nano>(t1 - t0).count() /
          (static_cast<double>(kPoolSize) * rounds);
      const double pps = 1e9 / ns;
      if (shards == 1) pps1 = pps;
      if (shards == 4) pps4 = pps;
      std::printf(" %11.3g |", pps);
      OBS_GAUGE("dataplane." + nf + ".shards" + std::to_string(shards) + ".pps",
                pps);
    }
    std::printf(" %6.2fx\n", pps4 / pps1);
  }
  benchutil::rule();
  std::printf("Aggregate packets/s over all shards, partition + scatter "
              "included.\n\n");
}

/// Payload-scan microbench: memchr-hop vs BMH vs the engine's adaptive
/// scan, across two haystack regimes. "sparse" is random noise where
/// the needle's first byte is rare — memchr's vectorized sweep is
/// unbeatable there at any needle length. "dense" draws haystack bytes
/// from the needle's own alphabet (minus its last byte, so no match
/// ever completes): first-byte candidates every few bytes degrade the
/// hop to a memcmp crawl, while BMH's cost stays ~1/needle_len probes
/// per byte. The crossover this table proves: for needles >=
/// kBmhMinNeedle the dense-regime ratio flips decisively to BMH, and
/// the adaptive scan tracks the winner in *both* regimes, which is why
/// payload_contains uses it for long needles.
void payload_scan_bench() {
  constexpr std::size_t kHay = 64 * 1024;
  constexpr int kIters = 400;
  const char* const needle_texts[] = {"GET ", "exploit", "USER root",
                                      "/etc/passwd", "ThisNeedleIsVeryLong"};
  const auto time_scan = [&](const std::vector<std::uint8_t>& hay,
                             const auto& scan) {
    const auto t0 = Clock::now();
    for (int i = 0; i < kIters; ++i) benchmark::DoNotOptimize(scan(hay));
    const auto t1 = Clock::now();
    return std::chrono::duration<double, std::nano>(t1 - t0).count() /
           (kIters * (kHay / 1024.0));
  };
  std::printf("Payload scan: memchr hop vs BMH vs adaptive, %zu KiB "
              "haystack, no match (worst case)\n",
              kHay / 1024);
  benchutil::rule('=');
  std::printf("%-20s | %3s | %-6s | %10s | %10s | %10s | %7s\n", "needle",
              "len", "hay", "mem ns/KB", "bmh ns/KB", "adap ns/KB",
              "bmh/mem");
  benchutil::rule();
  double engine_ns_per_kb = 0;
  int engine_cells = 0;
  for (const char* text : needle_texts) {
    const dataplane::Needle needle = dataplane::make_needle(text);
    const std::size_t len = needle.text.size();
    for (const bool dense : {false, true}) {
      std::vector<std::uint8_t> hay(kHay);
      std::uint64_t s = 0x9e3779b97f4a7c15ull;  // deterministic noise
      for (auto& b : hay) {
        s = s * 6364136223846793005ull + 1442695040888963407ull;
        if (dense) {
          // Bytes from the needle's own alphabet, excluding its last
          // byte: candidates everywhere, but no probe ever completes.
          b = static_cast<std::uint8_t>(needle.text[(s >> 33) % (len - 1)]);
        } else {
          b = static_cast<std::uint8_t>('0' + ((s >> 33) % 10));
        }
      }
      const double mem_ns = time_scan(hay, [&](const auto& h) {
        return dataplane::scan_memchr_hop({h.data(), h.size()}, needle.text);
      });
      const double bmh_ns = time_scan(hay, [&](const auto& h) {
        return dataplane::scan_bmh({h.data(), h.size()}, needle);
      });
      const double adaptive_ns = time_scan(hay, [&](const auto& h) {
        return dataplane::scan_adaptive({h.data(), h.size()}, needle);
      });
      std::printf("%-20s | %3zu | %-6s | %10.2f | %10.2f | %10.2f | %6.2fx\n",
                  text, len, dense ? "dense" : "sparse", mem_ns, bmh_ns,
                  adaptive_ns, bmh_ns / mem_ns);
      const std::string key = std::string(".len") + std::to_string(len) +
                              (dense ? ".dense" : ".sparse") + ".ns_per_kb";
      OBS_GAUGE("dataplane.payload_scan.memchr" + key, mem_ns);
      OBS_GAUGE("dataplane.payload_scan.bmh" + key, bmh_ns);
      OBS_GAUGE("dataplane.payload_scan.adaptive" + key, adaptive_ns);
      // The headline gauge: what payload_contains actually pays.
      engine_ns_per_kb += needle.use_bmh ? adaptive_ns : mem_ns;
      ++engine_cells;
    }
  }
  benchutil::rule();
  OBS_GAUGE("dataplane.payload_scan.ns_per_kb",
            engine_ns_per_kb / engine_cells);
  std::printf("engine = payload_contains dispatch: memchr hop below %zu "
              "bytes, adaptive (hop, then BMH once %zu candidates fail) at "
              "or above.\n\n",
              dataplane::kBmhMinNeedle, dataplane::kScanSwitchCandidates);
}

void BM_CompiledBatch(benchmark::State& state, const char* nf) {
  const Compiled c = compile_nf(nf);
  dataplane::DataplaneEngine eng(c.table, c.store);
  dataplane::BatchOutput out;
  for (auto _ : state) {
    out.clear();
    eng.execute_batch(pool(), out);
    benchmark::DoNotOptimize(out.matched.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(pool().size()));
}
BENCHMARK_CAPTURE(BM_CompiledBatch, snort_lite, "snort_lite")
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_CompiledBatch, dpi, "dpi")->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_CompiledBatch, nat, "nat")->Unit(benchmark::kMillisecond);

void BM_ModelInterp(benchmark::State& state, const char* nf) {
  const Compiled c = compile_nf(nf);
  model::ModelInterpreter interp(c.r.model, c.store);
  std::size_t i = 0;
  for (auto _ : state) {
    const auto out = interp.process(pool()[i++ % pool().size()]);
    benchmark::DoNotOptimize(out.matched_entry);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK_CAPTURE(BM_ModelInterp, snort_lite, "snort_lite");
BENCHMARK_CAPTURE(BM_ModelInterp, dpi, "dpi");

}  // namespace

int main(int argc, char** argv) {
  report();
  if (std::getenv("NFACTOR_BENCH_NF") != nullptr) {
    // Single-NF iteration mode: skip the NF-independent sections.
    return nfactor::benchutil::bench_main(argc, argv);
  }
  shard_sweep();
  payload_scan_bench();
  return nfactor::benchutil::bench_main(argc, argv);
}
