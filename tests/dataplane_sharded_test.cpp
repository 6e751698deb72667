// ShardedDataplane's contract wall (docs/dataplane.md): flow-hash
// determinism and direction symmetry, shard-partition stability across
// runs and shard counts, per-shard equivalence with a single engine fed
// the same packet subsequence (valid for *every* NF), shard-count
// invariance for flow-partitionable NFs, and merge_state()/snapshot()
// semantics. The whole binary also runs under TSan in CI — the worker
// pool, the per-shard engines, and the scatter phase must be race-free
// at 1/2/8 shards.
#include "dataplane/sharded.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <vector>

#include "dataplane/engine.h"
#include "model/interp.h"
#include "netsim/packet_gen.h"
#include "nfactor/pipeline.h"
#include "nfs/corpus.h"
#include "tests/test_util.h"

namespace nfactor::dataplane {
namespace {

using runtime::Value;
using testutil::tcp_packet;

netsim::Packet reversed(netsim::Packet p) {
  std::swap(p.ip_src, p.ip_dst);
  std::swap(p.sport, p.dport);
  return p;
}

/// Traffic with real flow structure: random packets, reverse-direction
/// replies for half of them, then the whole mix again so every flow has
/// repeat packets hitting warmed-up state.
std::vector<netsim::Packet> flow_batch() {
  netsim::PacketGen gen(7);
  auto packets = gen.batch(120);
  const std::size_t n = packets.size();
  for (std::size_t i = 0; i < n / 2; ++i) {
    packets.push_back(reversed(packets[i]));
  }
  const auto edges = netsim::PacketGen::edge_cases();
  packets.insert(packets.end(), edges.begin(), edges.end());
  const std::vector<netsim::Packet> again = packets;
  packets.insert(packets.end(), again.begin(), again.end());
  return packets;
}

struct CompiledNf {
  pipeline::PipelineResult r;
  std::map<std::string, Value> store;
  CompiledTable table;
};

CompiledNf compile_nf(const std::string& name) {
  auto r = pipeline::run_source(nfs::find(name).source, name);
  auto store = model::initial_store(*r.module);
  CompileOptions copts;
  copts.bindings = &store;
  CompiledTable table = compile(r.model, copts);
  return CompiledNf{std::move(r), std::move(store), std::move(table)};
}

// ---------------------------------------------------------------------------
// Flow hash
// ---------------------------------------------------------------------------

TEST(FlowHash, DeterministicAcrossCallsAndDirectionSymmetric) {
  netsim::PacketGen gen(3);
  for (const auto& p : gen.batch(200)) {
    EXPECT_EQ(flow_hash(p), flow_hash(p));
    // A reply packet must land on the requester's shard: firewall-style
    // NFs match the reversed tuple.
    EXPECT_EQ(flow_hash(p), flow_hash(reversed(p)));
  }
}

TEST(FlowHash, DistinguishesFlows) {
  // Not a cryptographic requirement — just that the hash actually uses
  // the tuple. All-pairs distinct over a modest sample.
  std::vector<std::uint64_t> hashes;
  for (int i = 0; i < 64; ++i) {
    hashes.push_back(flow_hash(tcp_packet("10.0.0.1", 1000 + i, "10.0.0.2",
                                          80)));
  }
  std::sort(hashes.begin(), hashes.end());
  EXPECT_EQ(std::unique(hashes.begin(), hashes.end()), hashes.end());
}

TEST(FlowHash, ShardAssignmentStableAcrossRunsAndCounts) {
  const CompiledNf nf = compile_nf("firewall");
  const auto packets = flow_batch();
  for (const int shards : {1, 2, 8}) {
    ShardOptions opts;
    opts.shards = shards;
    const ShardedDataplane a(nf.table, nf.store, opts);
    const ShardedDataplane b(nf.table, nf.store, opts);
    for (const auto& p : packets) {
      const int s = a.shard_of(p);
      EXPECT_EQ(s, b.shard_of(p));       // same 5-tuple -> same shard
      EXPECT_EQ(s, a.shard_of(p));       // stable across calls
      EXPECT_EQ(s, a.shard_of(reversed(p)));
      EXPECT_GE(s, 0);
      EXPECT_LT(s, shards);
    }
  }
}

// ---------------------------------------------------------------------------
// Equivalence: sharded vs single, corpus-wide
// ---------------------------------------------------------------------------

class ShardedCorpus : public ::testing::TestWithParam<nfs::CorpusEntry> {};

TEST_P(ShardedCorpus, OneShardEqualsUnshardedEngine) {
  const CompiledNf nf = compile_nf(std::string(GetParam().name));
  const auto packets = flow_batch();

  DataplaneEngine single(nf.table, nf.store);
  BatchOutput sout;
  single.execute_batch(packets, sout);

  ShardedDataplane sharded(nf.table, nf.store, ShardOptions{1, {}});
  ShardedOutput out;
  sharded.execute_batch(packets, out);

  ASSERT_EQ(out.matched.size(), packets.size());
  EXPECT_EQ(out.matched, sout.matched);
  ASSERT_EQ(out.shard_outputs().size(), 1u);
  const auto sa = sout.sends();
  const auto sb = out.shard_outputs()[0].sends();
  ASSERT_EQ(sa.size(), sb.size());
  for (std::size_t j = 0; j < sa.size(); ++j) {
    EXPECT_EQ(sa[j].src, sb[j].src);
    EXPECT_EQ(sa[j].port, sb[j].port);
    EXPECT_TRUE(sa[j].packet() == sb[j].packet());
  }
  for (const std::string& v : nf.r.model.ois_vars) {
    const Value* a = single.state(v);
    const Value* b = sharded.engine(0).state(v);
    ASSERT_EQ(a == nullptr, b == nullptr) << v;
    if (a != nullptr) {
      EXPECT_TRUE(runtime::value_eq(*a, *b)) << v;
    }
  }
}

/// The universal contract: each shard behaves exactly like a single
/// engine fed that shard's packet subsequence — regardless of whether
/// the NF is flow-partitionable. Checked at 2 and 8 shards.
TEST_P(ShardedCorpus, EveryShardMatchesAReferenceEngine) {
  const CompiledNf nf = compile_nf(std::string(GetParam().name));
  const auto packets = flow_batch();
  for (const int shards : {2, 8}) {
    ShardOptions opts;
    opts.shards = shards;
    ShardedDataplane sharded(nf.table, nf.store, opts);
    ShardedOutput out;
    sharded.execute_batch(packets, out);
    ASSERT_EQ(out.matched.size(), packets.size());
    ASSERT_EQ(out.shard_of.size(), packets.size());

    for (int s = 0; s < shards; ++s) {
      // Reference: a fresh single engine over this shard's packets.
      std::vector<netsim::Packet> sub;
      std::vector<std::size_t> sub_src;
      for (std::size_t i = 0; i < packets.size(); ++i) {
        if (out.shard_of[i] == s) {
          sub.push_back(packets[i]);
          sub_src.push_back(i);
        }
      }
      DataplaneEngine ref(nf.table, nf.store);
      BatchOutput rout;
      ref.execute_batch(sub, rout);

      const auto& shard_out = out.shard_outputs()[static_cast<std::size_t>(s)];
      ASSERT_EQ(shard_out.matched.size(), sub.size())
          << GetParam().name << " shard " << s << "/" << shards;
      for (std::size_t j = 0; j < sub.size(); ++j) {
        EXPECT_EQ(rout.matched[j], shard_out.matched[j])
            << GetParam().name << " shard " << s << " packet " << j;
        EXPECT_EQ(rout.matched[j], out.matched[sub_src[j]]);
      }
      const auto rs = rout.sends();
      const auto ss = shard_out.sends();
      ASSERT_EQ(rs.size(), ss.size())
          << GetParam().name << " shard " << s << "/" << shards;
      for (std::size_t j = 0; j < rs.size(); ++j) {
        // Reference srcs index the subsequence; shard srcs are global.
        EXPECT_EQ(sub_src[static_cast<std::size_t>(rs[j].src)],
                  static_cast<std::size_t>(ss[j].src));
        EXPECT_EQ(rs[j].port, ss[j].port);
        EXPECT_TRUE(rs[j].packet() == ss[j].packet());
      }
      for (const std::string& v : nf.r.model.ois_vars) {
        const Value* a = ref.state(v);
        const Value* b = sharded.engine(s).state(v);
        ASSERT_EQ(a == nullptr, b == nullptr) << v;
        if (a != nullptr) {
          EXPECT_TRUE(runtime::value_eq(*a, *b))
              << GetParam().name << " shard " << s << " state " << v;
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllNfs, ShardedCorpus, ::testing::ValuesIn(nfs::corpus()),
    [](const ::testing::TestParamInfo<nfs::CorpusEntry>& info) {
      return std::string(info.param.name);
    });

/// Shard-count invariance holds for flow-partitionable NFs: stateless
/// filters trivially, and firewall because its only state is keyed by
/// the (symmetric) 5-tuple the hash partitions on. NFs keyed by
/// coarser-than-flow data (heavy_hitter's per-src bytes, nat's global
/// port cursor) are deliberately absent — see docs/dataplane.md.
TEST(ShardedInvariance, FlowPartitionableNfsAreShardCountInvariant) {
  for (const char* name : {"snort_lite", "dpi", "firewall"}) {
    const CompiledNf nf = compile_nf(name);
    const auto packets = flow_batch();
    ShardedDataplane one(nf.table, nf.store, ShardOptions{1, {}});
    ShardedOutput base;
    one.execute_batch(packets, base);
    for (const int shards : {2, 4, 8}) {
      ShardedDataplane sd(nf.table, nf.store, ShardOptions{shards, {}});
      ShardedOutput out;
      sd.execute_batch(packets, out);
      EXPECT_EQ(base.matched, out.matched) << name << " shards " << shards;
      // Sends: same multiset per source packet. Flatten and sort by
      // (src, port) — within-flow order is preserved per shard, and a
      // single packet's sends stay contiguous.
      const auto flatten = [](const ShardedOutput& o) {
        std::vector<std::pair<std::int32_t, int>> v;
        for (const auto& b : o.shard_outputs()) {
          for (const auto& snd : b.sends()) v.emplace_back(snd.src, snd.port);
        }
        std::sort(v.begin(), v.end());
        return v;
      };
      EXPECT_EQ(flatten(base), flatten(out)) << name << " shards " << shards;
    }
  }
}

// ---------------------------------------------------------------------------
// State reconciliation
// ---------------------------------------------------------------------------

TEST(ShardedState, MergeUnionsFlowKeyedMaps) {
  const CompiledNf nf = compile_nf("firewall");
  const auto packets = flow_batch();
  ShardedDataplane sd(nf.table, nf.store, ShardOptions{4, {}});
  ShardedOutput out;
  sd.execute_batch(packets, out);

  const auto merged = sd.merge_state();
  const auto it = merged.find("conns");
  ASSERT_NE(it, merged.end());
  ASSERT_TRUE(it->second.is_map());
  // Union: every shard entry appears in the merged map, and the merged
  // map has nothing the shards don't.
  std::size_t shard_total = 0;
  for (int s = 0; s < 4; ++s) {
    const Value* sv = sd.engine(s).state("conns");
    ASSERT_NE(sv, nullptr);
    shard_total += sv->as_map().items.size();
    for (const auto& [k, v] : sv->as_map().items) {
      const auto mit = it->second.as_map().items.find(k);
      ASSERT_NE(mit, it->second.as_map().items.end());
      EXPECT_TRUE(runtime::value_eq(mit->second, v));
    }
  }
  // Flow-keyed: shard key sets are disjoint, so the union is exact.
  EXPECT_EQ(it->second.as_map().items.size(), shard_total);
  ASSERT_GT(shard_total, 0u) << "traffic never established a connection";

  // And the merged map equals the single-engine end state (same flows,
  // same per-flow transitions, just executed on different replicas).
  DataplaneEngine single(nf.table, nf.store);
  BatchOutput sout;
  single.execute_batch(packets, sout);
  EXPECT_TRUE(runtime::value_eq(*single.state("conns"), it->second));
}

TEST(ShardedState, MergeSumsScalarDeltasAndSnapshotsPerShard) {
  // nat's next_p is the canonical NOT-flow-partitionable scalar: each
  // shard allocates ports independently from the same initial cursor.
  // The delta merge counts total allocations; it cannot (and does not
  // claim to) reproduce single-engine port assignment order.
  const CompiledNf nf = compile_nf("nat");
  const auto packets = flow_batch();
  ShardedDataplane sd(nf.table, nf.store, ShardOptions{4, {}});
  ShardedOutput out;
  sd.execute_batch(packets, out);

  const auto snap = sd.snapshot("next_p");
  ASSERT_EQ(snap.size(), 4u);
  const auto init = nf.store.find("next_p");
  ASSERT_NE(init, nf.store.end());
  runtime::Int expected = init->second.as_int();
  for (const Value* v : snap) {
    ASSERT_NE(v, nullptr);
    expected += v->as_int() - init->second.as_int();
  }
  const auto merged = sd.merge_state();
  ASSERT_TRUE(merged.at("next_p").is_int());
  EXPECT_EQ(merged.at("next_p").as_int(), expected);
}

// ---------------------------------------------------------------------------
// Worker-pool stress (the TSan target)
// ---------------------------------------------------------------------------

TEST(ShardedStress, RepeatedBatchesAtOneTwoEightShards) {
  const CompiledNf nf = compile_nf("firewall");
  netsim::PacketGen gen(13);
  for (const int shards : {1, 2, 8}) {
    ShardOptions opts;
    opts.shards = shards;
    ShardedDataplane sd(nf.table, nf.store, opts);
    ShardedOutput out;
    for (int round = 0; round < 5; ++round) {
      const auto packets = gen.batch(200);
      sd.execute_batch(packets, out);
      ASSERT_EQ(out.matched.size(), packets.size());
    }
  }
}

}  // namespace
}  // namespace nfactor::dataplane
