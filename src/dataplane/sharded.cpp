#include "dataplane/sharded.h"

#include <condition_variable>
#include <mutex>
#include <thread>
#include <utility>

#include "obs/obs.h"

namespace nfactor::dataplane {

namespace {

inline std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

}  // namespace

std::uint64_t flow_hash(const netsim::Packet& p) {
  // Canonicalize endpoint order so both directions of a connection mix
  // the same words (firewall.nf matches replies on the reversed tuple).
  std::uint64_t a =
      (static_cast<std::uint64_t>(p.ip_src) << 16) | p.sport;
  std::uint64_t b =
      (static_cast<std::uint64_t>(p.ip_dst) << 16) | p.dport;
  if (a > b) std::swap(a, b);
  std::uint64_t h = splitmix64(a);
  h = splitmix64(h ^ b);
  return splitmix64(h ^ p.ip_proto);
}

/// Epoch-counted batch barrier. Workers sleep on cv_ until the epoch
/// advances, run their shard, then signal done_cv_. One mutex guards
/// the counters only — shard execution itself runs lock-free on
/// disjoint engines and output slots.
struct ShardedDataplane::Pool {
  std::vector<std::thread> workers;
  std::mutex mu;
  std::condition_variable cv;
  std::condition_variable done_cv;
  std::uint64_t epoch = 0;
  int remaining = 0;
  bool stop = false;
};

ShardedDataplane::ShardedDataplane(
    const CompiledTable& table,
    const std::map<std::string, runtime::Value>& store, ShardOptions opts)
    : initial_(store) {
  const int n = opts.shards < 1 ? 1 : opts.shards;
  engines_.reserve(static_cast<std::size_t>(n));
  for (int s = 0; s < n; ++s) {
    // Each engine deep-copies the store on construction, so replicas
    // never alias each other's containers.
    engines_.push_back(std::make_unique<DataplaneEngine>(table, store));
  }
  shard_idx_.resize(static_cast<std::size_t>(n));
  if (n > 1) {
    pool_ = std::make_unique<Pool>();
    pool_->workers.reserve(static_cast<std::size_t>(n));
    for (int s = 0; s < n; ++s) {
      pool_->workers.emplace_back([this, s] { worker_loop(s); });
    }
  }
}

ShardedDataplane::~ShardedDataplane() {
  if (pool_ != nullptr) {
    {
      const std::lock_guard<std::mutex> lk(pool_->mu);
      pool_->stop = true;
    }
    pool_->cv.notify_all();
    for (std::thread& t : pool_->workers) t.join();
  }
}

void ShardedDataplane::run_shard(int s) {
  engines_[static_cast<std::size_t>(s)]->execute_indexed(
      cur_packets_, shard_idx_[static_cast<std::size_t>(s)],
      cur_out_->per_shard_[static_cast<std::size_t>(s)]);
}

void ShardedDataplane::worker_loop(int s) {
  std::uint64_t seen = 0;
  while (true) {
    {
      std::unique_lock<std::mutex> lk(pool_->mu);
      pool_->cv.wait(lk, [&] { return pool_->stop || pool_->epoch != seen; });
      if (pool_->stop) return;
      seen = pool_->epoch;
    }
    run_shard(s);
    {
      const std::lock_guard<std::mutex> lk(pool_->mu);
      --pool_->remaining;
    }
    pool_->done_cv.notify_one();
  }
}

void ShardedDataplane::execute_batch(std::span<const netsim::Packet> packets,
                                     ShardedOutput& out) {
  const int n = shards();
  const std::size_t np = packets.size();
  out.matched.assign(np, 0);
  out.shard_of.resize(np);
  out.per_shard_.resize(static_cast<std::size_t>(n));
  for (BatchOutput& b : out.per_shard_) b.clear();
  for (auto& v : shard_idx_) v.clear();
  for (std::size_t i = 0; i < np; ++i) {
    const int s = shard_of(packets[i]);
    out.shard_of[i] = s;
    shard_idx_[static_cast<std::size_t>(s)].push_back(
        static_cast<std::int32_t>(i));
  }
  cur_packets_ = packets;
  cur_out_ = &out;
  if (pool_ == nullptr) {
    run_shard(0);
  } else {
    {
      const std::lock_guard<std::mutex> lk(pool_->mu);
      ++pool_->epoch;
      pool_->remaining = n;
    }
    pool_->cv.notify_all();
    std::unique_lock<std::mutex> lk(pool_->mu);
    pool_->done_cv.wait(lk, [&] { return pool_->remaining == 0; });
  }
  // Scatter verdicts back to input order. Sends stay per shard.
  for (int s = 0; s < n; ++s) {
    const auto& idx = shard_idx_[static_cast<std::size_t>(s)];
    const auto& matched = out.per_shard_[static_cast<std::size_t>(s)].matched;
    for (std::size_t j = 0; j < idx.size(); ++j) {
      out.matched[static_cast<std::size_t>(idx[j])] = matched[j];
    }
  }
  OBS_COUNT_N("dataplane.sharded.packets", np);
}

std::map<std::string, runtime::Value> ShardedDataplane::merge_state() const {
  std::map<std::string, runtime::Value> merged = initial_;
  for (auto& [name, v] : merged) {
    if (v.is_int()) {
      // Additive-counter merge: initial + sum of per-shard deltas.
      runtime::Int acc = v.as_int();
      for (const auto& e : engines_) {
        const runtime::Value* sv = e->state(name);
        if (sv != nullptr && sv->is_int()) acc += sv->as_int() - v.as_int();
      }
      v = runtime::Value(acc);
      continue;
    }
    if (v.is_map()) {
      // Union in ascending shard order; colliding keys keep the highest
      // shard's value (disjoint by construction for flow-keyed maps).
      auto m = std::make_shared<runtime::MapV>();
      for (const auto& e : engines_) {
        const runtime::Value* sv = e->state(name);
        if (sv == nullptr || !sv->is_map()) continue;
        for (const auto& [k, mv] : sv->as_map().items) {
          m->items.insert_or_assign(k, mv);
        }
      }
      v = runtime::Value(std::move(m));
      continue;
    }
    // Everything else: shard 0's view wins.
    if (const runtime::Value* sv = engines_.front()->state(name)) v = *sv;
  }
  return merged;
}

std::vector<const runtime::Value*> ShardedDataplane::snapshot(
    const std::string& var) const {
  std::vector<const runtime::Value*> out;
  out.reserve(engines_.size());
  for (const auto& e : engines_) out.push_back(e->state(var));
  return out;
}

}  // namespace nfactor::dataplane
