// Trace replay: generate traffic, write it through the real wire codec
// to a trace file, read it back, and replay it through an NF — original
// program, synthesized model, and the compiled dataplane engine
// (src/dataplane/, batch API) side by side; then once more through a
// 2-shard ShardedDataplane, with every shard validated
// against a reference engine fed that shard's packet subsequence.
//
//   trace_replay [nf-name] [packet-count]
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "dataplane/engine.h"
#include "dataplane/sharded.h"
#include "model/interp.h"
#include "netsim/packet_gen.h"
#include "netsim/trace.h"
#include "nfactor/pipeline.h"
#include "nfs/corpus.h"
#include "runtime/interp.h"

int main(int argc, char** argv) {
  using namespace nfactor;
  const std::string nf = argc > 1 ? argv[1] : "firewall";
  const int count = argc > 2 ? std::atoi(argv[2]) : 500;

  // 1. Generate a workload and round-trip it through the wire format.
  netsim::PacketGen gen(2026);
  auto packets = gen.batch(count);
  for (std::size_t i = 0; i < packets.size(); ++i) {
    packets[i].in_port = static_cast<int>(i % 2);
  }
  const std::string path = "/tmp/nfactor_replay.nftr";
  netsim::write_trace(path, packets);
  const auto replay = netsim::read_trace(path);
  std::printf("trace: wrote + re-read %zu frames via %s\n", replay.size(),
              path.c_str());

  // 2. Synthesize the model and replay the trace through all three
  // backends: the DSL runtime, the model interpreter (per packet), and
  // the compiled dataplane engine (one batch call over the whole trace).
  const auto r = pipeline::run_source(nfs::find(nf).source, nf);
  const auto store = model::initial_store(*r.module);
  runtime::Interpreter orig(*r.module);
  model::ModelInterpreter synth(r.model, store);

  dataplane::CompileOptions copts;
  copts.bindings = &store;
  const auto table = dataplane::compile(r.model, copts);
  dataplane::DataplaneEngine engine(table, store);
  dataplane::BatchOutput batch;
  engine.execute_batch(replay, batch);

  int fwd_orig = 0, fwd_model = 0, fwd_compiled = 0, agree = 0;
  const auto sends = batch.sends();
  std::size_t send_at = 0;  // sends are grouped by ascending src
  for (std::size_t k = 0; k < replay.size(); ++k) {
    const auto oo = orig.process(replay[k]);
    const auto mo = synth.process(replay[k]);
    std::vector<std::pair<netsim::Packet, int>> co;
    for (; send_at < sends.size() &&
           sends[send_at].src == static_cast<std::int32_t>(k);
         ++send_at) {
      co.emplace_back(sends[send_at].packet(), sends[send_at].port);
    }
    fwd_orig += oo.sent.empty() ? 0 : 1;
    fwd_model += mo.sent.empty() ? 0 : 1;
    fwd_compiled += co.empty() ? 0 : 1;
    bool same = oo.sent.size() == mo.sent.size() && mo.sent == co &&
                mo.matched_entry == batch.matched[k];
    for (std::size_t i = 0; same && i < oo.sent.size(); ++i) {
      same = oo.sent[i].first == mo.sent[i].first &&
             oo.sent[i].second == mo.sent[i].second;
    }
    agree += same ? 1 : 0;
  }
  std::printf("%s: %zu packets -> forwarded %d (original) / %d (model) / "
              "%d (compiled), all outputs agree on %d/%zu\n",
              nf.c_str(), replay.size(), fwd_orig, fwd_model, fwd_compiled,
              agree, replay.size());

  // 3. Sharded leg: the same trace through a 2-shard ShardedDataplane.
  // Each shard must match a fresh single engine fed that shard's packet
  // subsequence — verdicts, sends, global src indices, and final state.
  dataplane::ShardOptions sopts;
  sopts.shards = 2;
  dataplane::ShardedDataplane sharded(table, store, sopts);
  dataplane::ShardedOutput sout;
  sharded.execute_batch(replay, sout);
  int shard_ok = 0, shard_total = 0;
  for (int s = 0; s < sharded.shards(); ++s) {
    std::vector<netsim::Packet> sub;
    std::vector<std::int32_t> sub_src;
    for (std::size_t i = 0; i < replay.size(); ++i) {
      if (sout.shard_of[i] == s) {
        sub.push_back(replay[i]);
        sub_src.push_back(static_cast<std::int32_t>(i));
      }
    }
    dataplane::DataplaneEngine ref(table, store);
    dataplane::BatchOutput rout;
    ref.execute_batch(sub, rout);
    const auto& so = sout.shard_outputs()[static_cast<std::size_t>(s)];
    const auto rsends = rout.sends();
    const auto ssends = so.sends();
    bool ok = so.matched.size() == sub.size() && rsends.size() == ssends.size();
    for (std::size_t j = 0; ok && j < sub.size(); ++j) {
      ok = so.matched[j] == rout.matched[j] &&
           sout.matched[static_cast<std::size_t>(sub_src[j])] == rout.matched[j];
    }
    for (std::size_t j = 0; ok && j < rsends.size(); ++j) {
      ok = sub_src[static_cast<std::size_t>(rsends[j].src)] == ssends[j].src &&
           rsends[j].port == ssends[j].port &&
           rsends[j].packet() == ssends[j].packet();
    }
    for (const auto& v : r.model.ois_vars) {
      if (!ok) break;
      const runtime::Value* a = ref.state(v);
      const runtime::Value* b = sharded.engine(s).state(v);
      ok = (a == nullptr && b == nullptr) ||
           (a != nullptr && b != nullptr && runtime::value_eq(*a, *b));
    }
    shard_ok += ok ? 1 : 0;
    ++shard_total;
    std::printf("  shard %d: %zu packets, %zu sends, reference %s\n", s,
                sub.size(), ssends.size(), ok ? "agrees" : "DIVERGES");
  }
  std::printf("sharded (2 shards): %d/%d shards match their "
              "reference engine\n",
              shard_ok, shard_total);
  const bool pass =
      agree == static_cast<int>(replay.size()) && shard_ok == shard_total;
  return pass ? 0 : 1;
}
