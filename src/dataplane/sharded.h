// Multi-core sharded batch pipeline (docs/dataplane.md).
//
// ShardedDataplane owns N DataplaneEngine replicas — each with its own
// deep-copied state store — and partitions every input batch with an
// RSS-style symmetric 5-tuple flow hash: all packets of a flow, in both
// directions, land on the same shard, so per-flow state (NAT bindings,
// firewall connections, per-flow counters) behaves exactly as on a
// single engine. Shards execute on a persistent worker pool; results
// scatter back into per-input-packet verdicts plus per-shard send lists
// that preserve the within-shard packet order.
//
// Equivalence contract (tested in tests/dataplane_sharded_test.cpp and
// the fuzz oracle's sharded leg):
//   - every shard's verdicts, sends, and post-state are byte-equal to a
//     single engine fed that shard's packet subsequence, at any shard
//     count — this holds for *every* NF, because a shard is just an
//     engine;
//   - for flow-partitionable NFs (all state keyed by flow), per-packet
//     outputs are additionally shard-count invariant: shards never
//     interact, so the single-engine run decomposes exactly;
//   - NFs with cross-flow state (a global allocation counter, an
//     aggregate threshold) do NOT get shard-count-invariant outputs.
//     merge_state()/snapshot() reconcile such state best-effort — see
//     the soundness notes on merge_state().
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "dataplane/engine.h"

namespace nfactor::dataplane {

/// Symmetric 5-tuple flow hash: (ip, port) endpoints are ordered before
/// mixing, so a reply packet (src/dst swapped) hashes identically to
/// its request — required for NFs that look up reverse-direction keys
/// (firewall.nf's `rk`). splitmix64-mixed, stable across runs and
/// platforms (no pointer or seed input).
std::uint64_t flow_hash(const netsim::Packet& p);

struct ShardOptions {
  int shards = 1;
  /// Unread compatibility shim: perfbench/ still sets it. Stays until
  /// the next benchmark change.
  EngineOptions engine;
};

/// Batch result. matched[i] is the verdict for input packet i (same
/// encoding as BatchOutput::matched); shard_of[i] says which shard ran
/// it. Sends stay grouped per shard (shard_outputs()[s]), in that
/// shard's execution order, with Send::src holding the *global* input
/// index — flatten or re-sort by src as needed.
struct ShardedOutput {
  std::vector<std::int32_t> matched;
  std::vector<std::int32_t> shard_of;

  std::span<const BatchOutput> shard_outputs() const {
    return {per_shard_.data(), per_shard_.size()};
  }

 private:
  friend class ShardedDataplane;
  std::vector<BatchOutput> per_shard_;
};

class ShardedDataplane {
 public:
  /// Every replica starts from a deep copy of `store`. The table must
  /// outlive the ShardedDataplane.
  ShardedDataplane(const CompiledTable& table,
                   const std::map<std::string, runtime::Value>& store,
                   ShardOptions opts = {});
  ~ShardedDataplane();
  ShardedDataplane(const ShardedDataplane&) = delete;
  ShardedDataplane& operator=(const ShardedDataplane&) = delete;

  /// Partition `packets` by flow hash, run all shards (on the worker
  /// pool when shards > 1), scatter verdicts back. Unlike
  /// DataplaneEngine::execute_batch this *replaces* the previous
  /// contents of `out` (send pools are still reused, so steady-state
  /// batches do not allocate).
  void execute_batch(std::span<const netsim::Packet> packets,
                     ShardedOutput& out);

  int shards() const { return static_cast<int>(engines_.size()); }
  DataplaneEngine& engine(int shard) { return *engines_[static_cast<std::size_t>(shard)]; }
  const DataplaneEngine& engine(int shard) const {
    return *engines_[static_cast<std::size_t>(shard)];
  }
  int shard_of(const netsim::Packet& p) const {
    return static_cast<int>(flow_hash(p) % static_cast<std::uint64_t>(engines_.size()));
  }

  /// Reconcile per-shard state into one cross-shard view:
  ///   - maps: union over shards (ascending shard order; a key written
  ///     by several shards keeps the highest shard's value). SOUND when
  ///     map keys are flow-derived — the flow partition makes shard key
  ///     sets disjoint. NOT sound for maps keyed by non-flow data two
  ///     shards may both write.
  ///   - int scalars: initial + sum of per-shard deltas. SOUND for
  ///     additive counters (packet/byte tallies). NOT sound for scalars
  ///     with non-commutative updates (an allocation cursor like nat.nf's
  ///     next_p — the merged value counts allocations but cannot
  ///     reproduce single-engine assignment order).
  ///   - anything else: shard 0's value wins.
  std::map<std::string, runtime::Value> merge_state() const;

  /// Per-shard copy of one variable's state (index = shard); entries
  /// are null where the shard lacks the variable.
  std::vector<const runtime::Value*> snapshot(const std::string& var) const;

 private:
  void run_shard(int s);
  void worker_loop(int s);

  std::vector<std::unique_ptr<DataplaneEngine>> engines_;
  std::map<std::string, runtime::Value> initial_;  ///< for delta merges
  std::vector<std::vector<std::int32_t>> shard_idx_;  ///< reused per batch

  // Per-batch shared inputs (set by execute_batch, read by workers).
  std::span<const netsim::Packet> cur_packets_;
  ShardedOutput* cur_out_ = nullptr;

  // Worker pool (spawned only when shards > 1): epoch-counted batch
  // barrier — bump epoch_ to release every worker once, wait for
  // remaining_ to drain.
  struct Pool;
  std::unique_ptr<Pool> pool_;
};

}  // namespace nfactor::dataplane
