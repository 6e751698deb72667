#include "symex/intern.h"

#include <array>
#include <mutex>
#include <sstream>
#include <unordered_map>
#include <vector>

#include "obs/obs.h"

namespace nfactor::symex {

namespace {

// splitmix64 finalizer — the standard strong 64-bit mixer. Deterministic
// across runs and platforms (no ASLR-dependent inputs), so fingerprints
// are stable artifacts a cross-run cache key could be built on.
std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

std::uint64_t combine(std::uint64_t h, std::uint64_t v) {
  return mix64(h ^ v);
}

std::uint64_t hash_str(const std::string& s) {
  // FNV-1a.
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const unsigned char c : s) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  return h;
}

/// Structural fingerprint: kind + payload + child *fingerprints* (children
/// are already interned, so their fps are final). kVar folds in var_class —
/// it is part of interned identity even though key() does not render it,
/// so same-named variables of different classes never collapse.
std::uint64_t fingerprint_of(const SymExpr& n) {
  std::uint64_t h = mix64(0x6e666163746f72ULL ^ static_cast<std::uint64_t>(n.kind));
  switch (n.kind) {
    case SymKind::kConstInt:
      h = combine(h, static_cast<std::uint64_t>(n.int_val));
      break;
    case SymKind::kConstBool:
      h = combine(h, n.bool_val ? 2 : 1);
      break;
    case SymKind::kConstStr:
    case SymKind::kMapBase:
      h = combine(h, hash_str(n.str_val));
      break;
    case SymKind::kConstTuple:
      h = combine(h, n.tuple_val.size());
      for (const Int x : n.tuple_val) {
        h = combine(h, static_cast<std::uint64_t>(x));
      }
      break;
    case SymKind::kVar:
      h = combine(h, hash_str(n.str_val));
      h = combine(h, static_cast<std::uint64_t>(n.var_class));
      break;
    case SymKind::kUn:
      h = combine(h, static_cast<std::uint64_t>(n.un_op));
      break;
    case SymKind::kBin:
      h = combine(h, static_cast<std::uint64_t>(n.bin_op));
      break;
    case SymKind::kCall:
      h = combine(h, hash_str(n.str_val));
      break;
    default:
      break;
  }
  h = combine(h, n.operands.size());
  for (const auto& c : n.operands) h = combine(h, c->fp);
  for (const auto& [f, v] : n.fields) {
    h = combine(h, hash_str(f));
    h = combine(h, v->fp);
  }
  return h;
}

/// Shallow structural equality for intern-time confirmation: children are
/// already canonical, so comparing them by pointer *is* deep structural
/// equality. Payload fields not used by a kind sit at their defaults on
/// both sides, so a field-wise compare is exact.
bool shallow_eq(const SymExpr& a, const SymExpr& b) {
  if (a.kind != b.kind || a.int_val != b.int_val ||
      a.bool_val != b.bool_val || a.bin_op != b.bin_op ||
      a.un_op != b.un_op || a.var_class != b.var_class ||
      a.str_val != b.str_val || a.tuple_val != b.tuple_val ||
      a.operands.size() != b.operands.size() ||
      a.fields.size() != b.fields.size()) {
    return false;
  }
  for (std::size_t i = 0; i < a.operands.size(); ++i) {
    if (a.operands[i].get() != b.operands[i].get()) return false;
  }
  auto it = b.fields.begin();
  for (const auto& [f, v] : a.fields) {
    if (f != it->first || v.get() != it->second.get()) return false;
    ++it;
  }
  return true;
}

std::uint64_t approx_bytes(const SymExpr& n) {
  std::uint64_t b = sizeof(SymExpr);
  b += n.str_val.capacity();
  b += n.tuple_val.capacity() * sizeof(Int);
  b += n.operands.capacity() * sizeof(SymRef);
  // std::map node overhead estimate: rb-tree node + key string.
  for (const auto& [f, v] : n.fields) {
    (void)v;
    b += 4 * sizeof(void*) + 16 + f.capacity();
  }
  return b;
}

/// One interned node. `node` is valid while the entry is in the table:
/// the node's deleter unlinks the entry under the shard lock before it
/// frees the node. `ref` promotes a hit to a SymRef, and reads expired
/// while a dying node waits for that lock.
struct Entry {
  const SymExpr* node;
  std::weak_ptr<const SymExpr> ref;
};

struct Shard {
  std::mutex mu;
  // fp -> every live node with that fingerprint (almost always exactly
  // one; collisions land in the same vector and are told apart by
  // shallow_eq). A bucket is erased with its last entry.
  std::unordered_map<std::uint64_t, std::vector<Entry>> table;
};

constexpr std::size_t kShards = 16;

struct Interner {
  std::array<Shard, kShards> shards;
  std::atomic<std::uint64_t> nodes{0};
  std::atomic<std::uint64_t> hits{0};
  std::atomic<std::uint64_t> bytes{0};
  std::atomic<std::size_t> live{0};  ///< entries in the table
};

Interner& interner() {
  static auto* i = new Interner();  // leaked: nodes may outlive main()
  return *i;
}

/// SymRef deleter: unlinks the node from its bucket, then frees it. The
/// free runs outside the lock, since releasing the node's operands may
/// unlink them from the same shard.
struct Unlink {
  void operator()(const SymExpr* n) const {
    auto& in = interner();
    Shard& shard = in.shards[n->fp % kShards];
    {
      std::lock_guard<std::mutex> lock(shard.mu);
      const auto it = shard.table.find(n->fp);
      auto& bucket = it->second;
      for (std::size_t i = 0; i < bucket.size(); ++i) {
        if (bucket[i].node != n) continue;
        bucket[i] = std::move(bucket.back());
        bucket.pop_back();
        break;
      }
      if (bucket.empty()) shard.table.erase(it);
      in.live.fetch_sub(1, std::memory_order_relaxed);
    }
    delete n;
  }
};

}  // namespace

SymRef intern_node(SymExpr&& n) {
  n.fp = fingerprint_of(n);
  auto& in = interner();
  Shard& shard = in.shards[n.fp % kShards];
  std::lock_guard<std::mutex> lock(shard.mu);
  auto& bucket = shard.table[n.fp];
  for (const Entry& e : bucket) {
    if (!shallow_eq(*e.node, n)) continue;
    if (SymRef existing = e.ref.lock()) {
      in.hits.fetch_add(1, std::memory_order_relaxed);
      return existing;
    }
    // Dying: its deleter waits for this lock. Intern a fresh node.
  }
  in.nodes.fetch_add(1, std::memory_order_relaxed);
  in.bytes.fetch_add(approx_bytes(n), std::memory_order_relaxed);
  in.live.fetch_add(1, std::memory_order_relaxed);
  const auto* node = new SymExpr(std::move(n));
  SymRef fresh(node, Unlink{});
  bucket.push_back(Entry{node, fresh});
  return fresh;
}

InternStats intern_stats() {
  auto& in = interner();
  InternStats s;
  s.nodes = in.nodes.load(std::memory_order_relaxed);
  s.hits = in.hits.load(std::memory_order_relaxed);
  s.bytes = in.bytes.load(std::memory_order_relaxed);
  s.live = in.live.load(std::memory_order_relaxed);
  for (auto& shard : in.shards) {
    std::lock_guard<std::mutex> lock(shard.mu);
    s.buckets += shard.table.size();
  }
  return s;
}

std::string intern_summary() {
  const InternStats s = intern_stats();
  std::ostringstream os;
  const std::uint64_t calls = s.nodes + s.hits;
  os << "interner: " << s.nodes << " unique nodes, " << s.hits << " hits";
  if (calls > 0) {
    os << " (" << (100.0 * static_cast<double>(s.hits) /
                   static_cast<double>(calls))
       << "% of " << calls << " builds)";
  }
  os << ", ~" << s.bytes / 1024 << " KiB, " << s.live << " live in "
     << s.buckets << " buckets";
  return os.str();
}

void publish_intern_metrics() {
#if NFACTOR_OBS_ENABLED
  // Counters in the obs registry are monotonic; the interner keeps its
  // own atomics off the registry mutex, so publishing mirrors *deltas*
  // accumulated since the previous publish.
  static std::mutex mu;
  static std::uint64_t pub_nodes = 0, pub_hits = 0, pub_bytes = 0;
  const InternStats s = intern_stats();
  std::lock_guard<std::mutex> lock(mu);
  if (s.nodes > pub_nodes) OBS_COUNT_N("symex.intern.nodes", s.nodes - pub_nodes);
  if (s.hits > pub_hits) OBS_COUNT_N("symex.intern.hits", s.hits - pub_hits);
  if (s.bytes > pub_bytes) OBS_COUNT_N("symex.intern.bytes", s.bytes - pub_bytes);
  pub_nodes = s.nodes;
  pub_hits = s.hits;
  pub_bytes = s.bytes;
  OBS_GAUGE("symex.intern.live_nodes", static_cast<double>(s.live));
#endif
}

}  // namespace nfactor::symex
