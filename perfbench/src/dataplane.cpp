// dp_filter and dp_stateful: synthesized NFs run by tier-2 engines over
// 256-packet batches drawn round-robin from a seeded PacketGen ring of
// small packets (default mix, <= 64 B payload), like a NIC recycling
// its descriptor ring. One operation is one execute_batch on one engine;
// the NFs take turns batch by batch, so all see the same stream.
//
//   dp_filter    snort_lite, dpi: predicate dispatch and payload scans.
//   dp_stateful  the other eight NFs. 64 clients give the ring ~20k
//                distinct flows, installed by the warm pass; in every
//                timed batch 1 packet in 16 is rewritten to a never-seen
//                client, so inserts run beside lookups and updates. New
//                flows are never removed, so every pass over the ring
//                starts again from the warm pass's state: the live state
//                grows by at most 2048 flows per NF before it is reset.
//
// After the single-engine loop, ShardedDataplane (min(4, nproc) shards)
// runs 8192-packet bursts of the same pristine ring for the aggregate
// rate, with the same new-flow share and the same per-pass restart.
//
// Checks: on a seeded prefix of the ring a fresh engine's verdicts and
// sends equal ModelInterpreter's; that prefix's output digest is the same
// in every setup of the run and equals the one stored for the seed in
// perfbench/golden/prefix_digests.txt. Every timed batch must return one
// verdict per packet.
#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "common.h"
#include "dataplane/sharded.h"
#include "model/interp.h"
#include "netsim/packet_gen.h"
#include "nfs/corpus.h"

namespace perfbench {

namespace {

namespace dp = nfactor::dataplane;
using nfactor::netsim::Packet;

constexpr std::size_t kBatch = 256;
constexpr std::size_t kRing = 32768;
constexpr std::size_t kFreshEvery = 16;
constexpr std::size_t kShardBurst = 8192;
constexpr std::size_t kCheckPackets = 512;
constexpr std::size_t kWindows = kRing / kBatch;               // batches per pass
constexpr std::size_t kBurstsPerPass = kRing / kShardBurst;
// The single-engine loop runs until this share of the budget is used; the
// sharded leg, which only feeds printed figures, gets the rest.
constexpr double kSingleShare = 0.85;
constexpr std::size_t kMinBatches = 20;
constexpr std::uint64_t kDigestBasis = 0xcbf29ce484222325ULL;
constexpr const char* kDigestFile = "perfbench/golden/prefix_digests.txt";

struct DpConfig {
  std::string workload;
  std::string tag;  ///< qualifies the workload-wide layer metrics
  std::vector<std::string> nfs;
  int client_count = 8;
  bool fresh_flows = false;
};

std::uint64_t mix(std::uint64_t h, std::uint64_t v) {
  return (h ^ v) * 0x100000001b3ULL;
}

std::uint64_t digest(std::uint64_t h, const dp::BatchOutput& out) {
  for (const std::int32_t m : out.matched) h = mix(h, static_cast<std::uint64_t>(m));
  for (const auto& s : out.sends()) {
    const Packet& p = s.packet();
    h = mix(h, static_cast<std::uint64_t>(s.port) << 32 | static_cast<std::uint32_t>(s.src));
    h = mix(h, static_cast<std::uint64_t>(p.ip_src) << 32 | p.ip_dst);
    h = mix(h, static_cast<std::uint64_t>(p.sport) << 16 | p.dport);
    h = mix(h, p.payload.size() << 8 | p.tcp_flags);
  }
  return h;
}

DpConfig dp_config(const std::string& workload) {
  DpConfig cfg;
  cfg.workload = workload;
  if (workload == "dp_filter") {
    cfg.tag = "filter";
    cfg.nfs = {"snort_lite", "dpi"};
  } else if (workload == "dp_stateful") {
    cfg.tag = "stateful";
    cfg.nfs = {"lb", "balance", "nat", "firewall", "monitor", "l2_switch",
               "heavy_hitter", "synflood"};
    cfg.client_count = 64;
    cfg.fresh_flows = true;
  } else {
    throw std::invalid_argument("no dataplane workload '" + workload + "'");
  }
  return cfg;
}

std::vector<Packet> generate(const DpConfig& cfg, std::uint64_t seed, std::size_t n) {
  nfactor::netsim::GenConfig gcfg;
  gcfg.client_count = cfg.client_count;
  nfactor::netsim::PacketGen gen(seed, gcfg);
  return gen.batch(static_cast<int>(n));
}

dp::ShardOptions shard_options(const Options& opts) {
  dp::ShardOptions sopts;
  sopts.shards = opts.shards;
  sopts.engine.tier = dp::Tier::kThreaded;
  return sopts;
}

/// Turn a ring slot into the first packet of never-seen client flow n:
/// a new source address and port toward the service. The Ethernet source
/// stays one of the generator's client hosts, as for clients behind a
/// router, so L2 tables keep their size while flow tables grow.
void open_flow(Packet& p, std::uint64_t n) {
  p.ip_src = 0x0B000000u | static_cast<std::uint32_t>(n & 0xFFFFFF);
  p.sport = static_cast<std::uint16_t>(1024 + n % 60000);
  p.ip_dst = 0x03030303u;
  p.dport = 80;
  p.in_port = 0;
}

struct Lane {
  std::string nf;
  std::unique_ptr<Synthesized> s;
  std::unique_ptr<dp::ShardedDataplane> sharded;
  std::map<std::string, nfactor::runtime::Value> warm_store;  ///< after the warm pass
  dp::BatchOutput out;
  dp::ShardedOutput sout;
  double interp_ns = 0.0;
  std::uint64_t check_digest = 0;
  std::uint64_t digest = kDigestBasis;
  std::uint64_t packets = 0, matched = 0, sends = 0, owned = 0;
};

/// Fresh engine vs ModelInterpreter over `prefix`; one tally entry per
/// packet. Sets lane.interp_ns and lane.check_digest.
void check_against_interpreter(Lane& lane, std::span<const Packet> prefix,
                               bool plant_fault, Spans& spans, Tally& tally) {
  const Synthesized& s = *lane.s;
  dp::DataplaneEngine engine(s.table, s.store, dp::EngineOptions{dp::Tier::kThreaded});
  dp::BatchOutput out;
  {
    auto sp = spans.scope("DataplaneEngine::execute_batch");
    engine.execute_batch(prefix, out);
  }
  nfactor::model::ModelInterpreter interp(s.r.model, s.store);
  std::vector<nfactor::model::ModelOutput> want;
  want.reserve(prefix.size());
  const auto t0 = Clock::now();
  for (const Packet& p : prefix) {
    auto sp = spans.scope("ModelInterpreter::process");
    want.push_back(interp.process(p));
  }
  lane.interp_ns = ms_between(t0, Clock::now()) * 1e6 / static_cast<double>(prefix.size());
  if (plant_fault) want[0].matched_entry += 1;

  const auto sends = out.sends();
  std::size_t k = 0;
  for (std::size_t i = 0; i < prefix.size(); ++i) {
    bool ok = i < out.matched.size() && out.matched[i] == want[i].matched_entry;
    for (const auto& [pkt, port] : want[i].sent) {
      ok = ok && k < sends.size() && sends[k].src == static_cast<std::int32_t>(i) &&
           sends[k].port == port && sends[k].packet() == pkt;
      ++k;
    }
    ok = ok && (k >= sends.size() || sends[k].src != static_cast<std::int32_t>(i));
    tally.record(ok);
  }
  lane.check_digest = digest(kDigestBasis, out);
}

/// The workload's prefix digest: every NF's, in workload order.
std::uint64_t fold_digests(const std::vector<std::uint64_t>& per_nf) {
  std::uint64_t h = kDigestBasis;
  for (const std::uint64_t d : per_nf) h = mix(h, d);
  return h;
}

Report run_dp(const DpConfig& cfg, const Options& opts, Spans& spans) {
  const Budget budget(opts.seconds);
  Report rep;
  std::vector<Packet> ring;
  std::vector<Lane> lanes;
  std::vector<double> gen_ms;
  const std::optional<std::uint64_t> stored =
      stored_prefix_digest(opts.root, cfg.workload, opts.seed);
  std::uint64_t first_digest = 0;
  // Set-up: generate the ring, take every NF from source to an engine
  // and a sharded pipeline, and check a fresh engine against the
  // interpreter on the ring's prefix. The prefix's output digest must
  // equal the stored one, and later repetitions must reproduce it.
  const auto setup = [&](int r) {
    SpansState state(spans, opts.trace && r == 0);
    std::vector<Packet> new_ring;
    const auto t0 = Clock::now();
    {
      auto sp = spans.scope("netsim::PacketGen::batch");
      new_ring = generate(cfg, opts.seed, kRing);
    }
    gen_ms.push_back(ms_between(t0, Clock::now()));
    std::vector<Lane> new_lanes(cfg.nfs.size());
    std::vector<std::uint64_t> digests;
    for (std::size_t i = 0; i < cfg.nfs.size(); ++i) {
      Lane& lane = new_lanes[i];
      lane.nf = cfg.nfs[i];
      lane.s = synthesize(lane.nf, nfactor::nfs::find(lane.nf).source, spans);
      lane.sharded = std::make_unique<dp::ShardedDataplane>(lane.s->table, lane.s->store,
                                                            shard_options(opts));
      check_against_interpreter(lane, {new_ring.data(), kCheckPackets},
                                opts.plant_fault, spans, rep.tally);
      digests.push_back(lane.check_digest);
    }
    const std::uint64_t d = fold_digests(digests);
    if (r == 0) {
      first_digest = d;
      if (stored) rep.tally.record(d == *stored);
      ring = std::move(new_ring);
      lanes = std::move(new_lanes);
    } else {
      rep.tally.record(d == first_digest);
    }
  };
  SetupReps setups(opts.setup_reps, budget, kSingleShare);
  setups.run_due(setup);

  // Warm pass: every engine and sharded pipeline sees the whole ring
  // once, installing the ring's flows and constructing the output slots.
  // The timed loops rewrite their rings; the sharded one restarts from
  // this pristine copy.
  const std::vector<Packet> pristine = ring;
  const auto warm_shards = [&](Lane& lane) {
    for (std::size_t w = 0; w < kRing; w += kShardBurst) {
      lane.sharded->execute_batch({pristine.data() + w, kShardBurst}, lane.sout);
    }
  };
  for (Lane& lane : lanes) {
    for (std::size_t w = 0; w < kRing; w += kBatch) {
      lane.out.clear();
      lane.s->engine->execute_batch({ring.data() + w, kBatch}, lane.out);
    }
    lane.warm_store = lane.s->engine->store();
    warm_shards(lane);
  }
  rep.peak_rss_mb = peak_rss_mb();
  std::size_t live_flows = 0;
  for (const Lane& lane : lanes) live_flows += map_entries(lane.warm_store);

  // New flows are never removed: each pass over the ring restarts every
  // engine from its warm-pass state, so the state stays near live_flows.
  // fullest is the largest state seen at the end of a pass. The old
  // engine goes first so the new one reuses its memory: built beside it,
  // the state drifts over the heap and batches slow down pass by pass.
  std::size_t fullest = live_flows;
  const auto restart_engines = [&] {
    std::size_t entries = 0;
    for (Lane& lane : lanes) {
      entries += map_entries(lane.s->engine->store());
      lane.s->engine.reset();
      lane.s->engine = std::make_unique<dp::DataplaneEngine>(
          lane.s->table, lane.warm_store, dp::EngineOptions{dp::Tier::kThreaded});
    }
    fullest = std::max(fullest, entries);
  };

  const std::size_t n = lanes.size();
  ItemSamples samples(n);
  std::uint64_t fresh = 0;
  std::size_t batches = 0;
  for (std::size_t b = 0; b < kMinBatches || !budget.spent(kSingleShare); ++b) {
    batches = b + 1;
    setups.run_due(setup);
    const std::size_t w = (b % kWindows) * kBatch;
    if (cfg.fresh_flows) {
      if (b > 0 && w == 0) restart_engines();
      for (std::size_t i = w; i < w + kBatch; i += kFreshEvery) open_flow(ring[i], fresh++);
    }
    const std::span<const Packet> window(ring.data() + w, kBatch);
    const bool traced = opts.trace && b % 2 == 1;
    spans.set_enabled(traced);
    for (std::size_t k = 0; k < n; ++k) {
      const std::size_t i = (b + k) % n;
      Lane& lane = lanes[i];
      lane.out.clear();
      const auto t0 = Clock::now();
      {
        auto sp = spans.scope("DataplaneEngine::execute_batch");
        lane.s->engine->execute_batch(window, lane.out);
      }
      samples.add(i, ms_between(t0, Clock::now()), traced);

      const auto sends = lane.out.sends();
      rep.tally.record(lane.out.matched.size() == kBatch);
      lane.packets += kBatch;
      lane.matched += static_cast<std::uint64_t>(std::count_if(
          lane.out.matched.begin(), lane.out.matched.end(),
          [](std::int32_t m) { return m >= 0; }));
      lane.sends += sends.size();
      for (const auto& s : sends) {
        if (&s.packet() != &window[static_cast<std::size_t>(s.src)]) ++lane.owned;
      }
      lane.digest = digest(lane.digest, lane.out);
    }
    spans.set_enabled(false);
    if (b % kWindows == kWindows - 1) spans.drain();
  }
  spans.drain();
  setups.run_due(setup);
  rep.setup_s = setups.median_s();

  // Sharded leg: the same traffic as the single engines. Each pass over
  // the ring starts from a fresh pipeline that has seen the pristine ring
  // once (ShardedDataplane has no state restore), untimed.
  std::vector<Packet> shard_ring = pristine;
  std::uint64_t shard_fresh = 0;
  std::vector<std::vector<double>> shard_ms(n);
  std::size_t bursts = 0;
  for (std::size_t b = 0; b < kBurstsPerPass || !budget.spent(); ++b) {
    bursts = b + 1;
    const std::size_t w = (b % kBurstsPerPass) * kShardBurst;
    if (cfg.fresh_flows) {
      if (b > 0 && w == 0) {
        for (Lane& lane : lanes) {
          lane.sharded.reset();
          lane.sharded = std::make_unique<dp::ShardedDataplane>(
              lane.s->table, lane.s->store, shard_options(opts));
          warm_shards(lane);
        }
      }
      for (std::size_t i = w; i < w + kShardBurst; i += kFreshEvery) {
        open_flow(shard_ring[i], shard_fresh++);
      }
    }
    const std::span<const Packet> burst(shard_ring.data() + w, kShardBurst);
    spans.set_enabled(opts.trace && b % 2 == 1);
    for (std::size_t k = 0; k < n; ++k) {
      const std::size_t i = (b + k) % n;
      Lane& lane = lanes[i];
      const auto t0 = Clock::now();
      {
        auto sp = spans.scope("ShardedDataplane::execute_batch");
        lane.sharded->execute_batch(burst, lane.sout);
      }
      shard_ms[i].push_back(ms_between(t0, Clock::now()));
      rep.tally.record(lane.sout.matched.size() == kShardBurst);
    }
    spans.set_enabled(false);
  }
  spans.drain();

  samples.summarize(rep);
  // Mpps = packets per microsecond.
  const double mpps = static_cast<double>(kBatch) / (rep.op_ms_p50 * 1e3);
  const double sharded_mpps =
      static_cast<double>(kShardBurst) / (geomean(per_item(shard_ms, 50.0)) * 1e3);
  const auto pct = static_cast<int>(rep.tail_pct);
  rep.named.push_back({"mpps_geomean", mpps, "Mpps"});
  rep.named.push_back({"batch_us_p50", rep.op_ms_p50 * 1e3, "us"});
  if (pct > 50) {
    rep.named.push_back({"batch_us_p" + std::to_string(pct), rep.run_tail * 1e3, "us"});
  }
  rep.named.push_back({"sharded_mpps_geomean", sharded_mpps, "Mpps"});

  std::uint64_t packets = 0, matched = 0, sends = 0, owned = 0;
  std::size_t state_entries = 0;
  std::vector<double> interp_ns;
  std::uint64_t run_digest = kDigestBasis;
  for (std::size_t i = 0; i < n; ++i) {
    const Lane& lane = lanes[i];
    rep.layers.push_back({"dataplane." + lane.nf + ".ns_per_packet",
                          median(samples.plain[i]) * 1e6 / static_cast<double>(kBatch),
                          "ns"});
    packets += lane.packets;
    matched += lane.matched;
    sends += lane.sends;
    owned += lane.owned;
    state_entries += map_entries(lane.s->engine->store());
    interp_ns.push_back(lane.interp_ns);
    run_digest = mix(run_digest, lane.digest);
  }
  // Both dp workloads report these, so the workload's tag qualifies them.
  const auto d = [](auto v) { return static_cast<double>(v); };
  const auto name = [&](const char* layer, const char* metric) {
    return std::string(layer) + "." + cfg.tag + "." + metric;
  };
  // Both rates over their whole run: the sharded leg has no blocks.
  rep.layers.push_back({name("dataplane", "shard_speedup"),
                        sharded_mpps * rep.run_p50 * 1e3 / static_cast<double>(kBatch),
                        "x"});
  rep.layers.push_back({name("dataplane", "match_rate"), d(matched) / d(packets), "ratio"});
  rep.layers.push_back({name("dataplane", "sends_per_packet"), d(sends) / d(packets), "ratio"});
  rep.layers.push_back({name("dataplane", "owned_send_share"),
                        sends == 0 ? 0.0 : d(owned) / d(sends), "ratio"});
  rep.layers.push_back({name("dataplane", "state_entries"), d(state_entries), "count"});
  rep.layers.push_back({name("model", "interp_ns_per_packet"), geomean(interp_ns), "ns"});
  rep.layers.push_back({name("netsim", "gen_ms"), median(gen_ms), "ms"});

  char hex[32];
  std::snprintf(hex, sizeof hex, "%016llx", static_cast<unsigned long long>(run_digest));
  rep.notes.push_back(std::to_string(batches) + " batches x " + std::to_string(kBatch) +
                      " packets per NF, " + std::to_string(bursts) + " sharded bursts x " +
                      std::to_string(kShardBurst) + " at " + std::to_string(opts.shards) +
                      " shards; ring " + std::to_string(kRing) + " packets, " +
                      std::to_string(cfg.client_count) + " clients");
  rep.notes.push_back("state entries after warm pass: " + std::to_string(live_flows) +
                      ", at most " + std::to_string(fullest) +
                      " at the end of a pass, " + std::to_string(state_entries) +
                      " at the end; new-flow share: " +
                      (cfg.fresh_flows ? "1/" + std::to_string(kFreshEvery) + " (" +
                                             std::to_string(fresh) + " + " +
                                             std::to_string(shard_fresh) +
                                             " sharded new flows)"
                                       : std::string("0")));
  char prefix_hex[32];
  std::snprintf(prefix_hex, sizeof prefix_hex, "%016llx",
                static_cast<unsigned long long>(first_digest));
  rep.notes.push_back(std::string("prefix digest ") + prefix_hex +
                      (stored ? " (stored digest checked)"
                              : " (no stored digest for this seed: not checked)"));
  rep.notes.push_back(std::string("output digest ") + hex);
  return rep;
}

}  // namespace

Report run_dp_filter(const Options& opts, Spans& spans) {
  return run_dp(dp_config("dp_filter"), opts, spans);
}

Report run_dp_stateful(const Options& opts, Spans& spans) {
  return run_dp(dp_config("dp_stateful"), opts, spans);
}

std::vector<std::uint64_t> dp_prefix_digests(const std::string& workload,
                                             const std::vector<std::uint64_t>& seeds) {
  const DpConfig cfg = dp_config(workload);
  Spans spans(false);
  std::vector<std::unique_ptr<Synthesized>> nfs;
  for (const auto& nf : cfg.nfs) nfs.push_back(synthesize(nf, nfactor::nfs::find(nf).source, spans));
  std::vector<std::uint64_t> out;
  for (const std::uint64_t seed : seeds) {
    const std::vector<Packet> prefix = generate(cfg, seed, kCheckPackets);
    std::vector<std::uint64_t> per_nf;
    for (const auto& s : nfs) {
      dp::DataplaneEngine engine(s->table, s->store, dp::EngineOptions{dp::Tier::kThreaded});
      dp::BatchOutput batch;
      engine.execute_batch(prefix, batch);
      per_nf.push_back(digest(kDigestBasis, batch));
    }
    out.push_back(fold_digests(per_nf));
  }
  return out;
}

std::optional<std::uint64_t> stored_prefix_digest(const std::string& root,
                                                  const std::string& workload,
                                                  std::uint64_t seed) {
  std::ifstream in(root + "/" + kDigestFile);
  if (!in) throw std::runtime_error(std::string("cannot read ") + kDigestFile);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream fields(line);
    std::string w, hex;
    std::uint64_t s = 0;
    if (fields >> w >> s >> hex && w == workload && s == seed) {
      return std::stoull(hex, nullptr, 16);
    }
  }
  return std::nullopt;
}

std::string prefix_digest_file() { return kDigestFile; }

}  // namespace perfbench
