// Dataplane engine (docs/dataplane.md): compiles a synthesized NFactor
// model into one match/action table and executes it over packet
// *batches* — the third execution backend beside the DSL runtime and
// the per-packet model interpreter.
//
// compile() lowers a model in four passes:
//   1. config specialization — concrete config values are substituted
//      into every provably throw-free predicate/action expression, so
//      "pkt.dport == WATCH_PORT" becomes "pkt.dport == 80";
//   2. FDD construction (dataplane/fdd.h) — the ordered rule list
//      becomes a reduced, complement-unified, hash-consed decision DAG;
//   3. predicate/action compilation — expressions made of packet-field
//      reads, constants, arithmetic and payload literals are lowered to
//      tiny stack programs evaluated without the symbolic-expression
//      walker or any allocation (everything else keeps a generic slot
//      that falls back to symex::eval_concrete);
//   4. flattening — the DAG becomes one contiguous FlatNode array (the
//      golden IR), leaves become compiled action blocks.
//
// DataplaneEngine then lowers that table once more, into threaded code
// (dataplane/threaded.h), and runs only that code.
//
// Equivalence with model::ModelInterpreter is exact — including its
// treatment of throwing predicates (the entry fails, others survive) —
// and is enforced continuously by tests/dataplane_test.cpp, the golden
// dumps, and the fuzz oracle's compiled leg.
#pragma once

#include <array>
#include <bit>
#include <cstdint>
#include <cstring>
#include <map>

#if defined(__SSE2__)
#include <emmintrin.h>
#endif
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "dataplane/fdd.h"
#include "model/interp.h"
#include "model/model.h"
#include "netsim/packet.h"
#include "runtime/value.h"
#include "symex/concrete_eval.h"
#include "symex/expr.h"

namespace nfactor::dataplane {

/// Stack-machine opcodes for compiled (total, throw-free) expressions.
/// Value semantics mirror symex::eval_concrete exactly: booleans live on
/// the stack as 0/1, comparisons yield 0/1, logical ops test nonzero.
enum class OpCode : std::uint8_t {
  kPushConst,  ///< imm -> stack
  kPushField,  ///< netsim::read_field(pkt, FieldId(imm)) -> stack
  kEq, kNe, kLt, kLe, kGt, kGe,
  kAdd, kSub, kMul,
  kDiv, kMod,  ///< emitted only with a constant nonzero divisor
  kBitAnd, kBitOr, kBitXor, kShl, kShr,
  kAnd, kOr, kNot, kNeg,
  kPayloadContains,  ///< needles[imm] found in pkt.payload -> 0/1
};

struct Op {
  OpCode code = OpCode::kPushConst;
  runtime::Int imm = 0;
};

/// A compiled payload literal. Short needles are found with a memchr hop
/// (memchr on the first byte, memcmp to confirm); needles of at least
/// kBmhMinNeedle bytes additionally precompute a Boyer–Moore–Horspool
/// skip table and scan *adaptively*: start on the memchr hop (unbeatable
/// when the first byte is rare — one vectorized sweep), and switch to
/// BMH striding the moment candidate density proves high. The crossover
/// measurement is EXPERIMENTS.md's payload-scan table.
struct Needle {
  std::string text;
  std::array<std::uint8_t, 256> skip{};  ///< BMH shift table (long needles)
  bool use_bmh = false;
};

/// Needles shorter than this never engage BMH: its per-probe cost only
/// amortizes once the stride (needle length) is long enough to skip
/// whole words per probe; below it even a degenerate memchr hop wins
/// (EXPERIMENTS.md, payload-scan table).
inline constexpr std::size_t kBmhMinNeedle = 8;

/// Failed first-byte candidates the adaptive scan tolerates on the
/// memchr hop before concluding the haystack is candidate-dense and
/// switching to BMH. Sparse haystacks (random payload bytes: first-byte
/// density ~1/256) stay under the budget and keep pure-memchr speed;
/// dense ones pay at most this many wasted confirms, then stride.
inline constexpr std::size_t kScanSwitchCandidates = 16;

Needle make_needle(std::string text);

// Scan primitives. The engine always goes through payload_contains,
// which runs the memchr hop for short needles and scan_adaptive for
// use_bmh needles. Defined inline here so the threaded executor
// (threaded.cpp) and the stack machine (engine.cpp) get them inlined
// into their hot loops instead of paying a cross-TU call per scan.

/// Substring scan tuned for packet payloads: memchr (SIMD) hops between
/// first-byte candidates, memcmp confirms. glibc memmem's preprocessing
/// costs more than an entire 32-byte haystack; this is ~4x faster on
/// the generator's traffic mix. Same result as eval_concrete's
/// std::search.
inline bool scan_memchr_hop(std::span<const std::uint8_t> hay,
                            std::string_view needle) {
  const std::size_t nn = needle.size();
  if (nn == 0) return true;
  if (nn > hay.size()) return false;
  const std::uint8_t* p = hay.data();
  const std::uint8_t* const end = p + hay.size() - nn + 1;
  while (p < end) {
    p = static_cast<const std::uint8_t*>(
        std::memchr(p, needle[0], static_cast<std::size_t>(end - p)));
    if (p == nullptr) return false;
    if (std::memcmp(p + 1, needle.data() + 1, nn - 1) == 0) return true;
    ++p;
  }
  return false;
}

/// Boyer–Moore–Horspool: probe the byte aligned with the needle's end
/// and stride by its skip-table shift. For needles >= kBmhMinNeedle the
/// average stride approaches the needle length, beating memchr's
/// byte-at-a-time candidate scan (EXPERIMENTS.md's payload-scan table
/// has the crossover).
inline bool scan_bmh(std::span<const std::uint8_t> hay, const Needle& n) {
  const std::size_t nn = n.text.size();
  if (nn == 0) return true;
  if (nn > hay.size()) return false;
  const auto* needle = reinterpret_cast<const std::uint8_t*>(n.text.data());
  const std::uint8_t last = needle[nn - 1];
  std::size_t pos = 0;
  const std::size_t limit = hay.size() - nn;
  while (pos <= limit) {
    const std::uint8_t probe = hay[pos + nn - 1];
    if (probe == last && std::memcmp(hay.data() + pos, needle, nn - 1) == 0) {
      return true;
    }
    pos += n.skip[probe];
  }
  return false;
}

/// Adaptive scan for long needles: run the memchr hop while first-byte
/// candidates are sparse (the common case on random payload bytes,
/// where one vectorized sweep finds nothing), and hand the remaining
/// haystack to BMH once kScanSwitchCandidates confirms have failed —
/// candidate-dense haystacks (payloads sharing the needle's alphabet)
/// degrade the hop to a byte-at-a-time memcmp crawl, while BMH's cost
/// stays bounded at ~haystack/needle_len probes regardless of density.
inline bool scan_adaptive(std::span<const std::uint8_t> hay, const Needle& n) {
  const std::string_view needle = n.text;
  const std::size_t nn = needle.size();
  if (nn == 0) return true;
  if (nn > hay.size()) return false;
  const std::uint8_t* const base = hay.data();
  const std::uint8_t* p = base;
  const std::uint8_t* const end = p + hay.size() - nn + 1;
  std::size_t budget = kScanSwitchCandidates;
  while (p < end) {
    p = static_cast<const std::uint8_t*>(
        std::memchr(p, needle[0], static_cast<std::size_t>(end - p)));
    if (p == nullptr) return false;
    if (std::memcmp(p + 1, needle.data() + 1, nn - 1) == 0) return true;
    ++p;
    if (--budget == 0) {
      return scan_bmh(hay.subspan(static_cast<std::size_t>(p - base)), n);
    }
  }
  return false;
}

inline bool payload_contains(const std::vector<std::uint8_t>& hay,
                             const Needle& n) {
  return n.use_bmh ? scan_adaptive({hay.data(), hay.size()}, n)
                   : scan_memchr_hop({hay.data(), hay.size()}, n.text);
}

/// Disjunction scan: payload_contains(a) || payload_contains(b) behind
/// one call — the kContainsOr superinstruction's body. The common
/// length prologue runs once; then SSE2 builds a candidate mask for
/// *both* needles' first bytes per 16-byte chunk in a single pass and
/// memcmp-confirms the rare hits. On corpus-sized payloads (<= 64 B of
/// near-random bytes) that pass is pure compute over one or two
/// L1-resident chunks, versus two memchr library calls' worth of setup
/// for the sweep pair — the scan cost itself, not memory latency, is
/// what the vectored executor leaves on the profile. Non-x86 builds
/// keep the two-sweep form.
inline bool payload_contains_either(const std::vector<std::uint8_t>& hay,
                                    const Needle& a, const Needle& b) {
  const std::size_t n = hay.size();
  const std::size_t la = a.text.size();
  const std::size_t lb = b.text.size();
  if (la == 0 || lb == 0) return true;  // empty needle: contains == true
  if (la > n && lb > n) return false;
  if (la > n) return payload_contains(hay, b);
  if (lb > n) return payload_contains(hay, a);
#if defined(__SSE2__)
  const std::uint8_t* const p = hay.data();
  const std::uint8_t f0 = static_cast<std::uint8_t>(a.text[0]);
  const std::uint8_t f1 = static_cast<std::uint8_t>(b.text[0]);
  // Candidate starts exist up to n - min(la, lb); positions past that
  // fail the confirm's bounds checks naturally, so chunk masks never
  // need a span cutoff.
  const std::size_t span = n - std::min(la, lb) + 1;
  const auto confirm = [&](std::size_t pos) {
    const std::uint8_t c = p[pos];
    if (c == f0 && pos + la <= n &&
        std::memcmp(p + pos + 1, a.text.data() + 1, la - 1) == 0) {
      return true;
    }
    return c == f1 && pos + lb <= n &&
           std::memcmp(p + pos + 1, b.text.data() + 1, lb - 1) == 0;
  };
  if (n < 16) {
    for (std::size_t pos = 0; pos < span; ++pos) {
      if ((p[pos] == f0 || p[pos] == f1) && confirm(pos)) return true;
    }
    return false;
  }
  const __m128i va = _mm_set1_epi8(static_cast<char>(f0));
  const __m128i vb = _mm_set1_epi8(static_cast<char>(f1));
  const auto chunk_hits = [&](const std::uint8_t* q) {
    const __m128i w = _mm_loadu_si128(reinterpret_cast<const __m128i*>(q));
    return static_cast<unsigned>(_mm_movemask_epi8(
        _mm_or_si128(_mm_cmpeq_epi8(w, va), _mm_cmpeq_epi8(w, vb))));
  };
  std::size_t i = 0;
  for (; i + 16 <= n && i < span; i += 16) {
    unsigned hits = chunk_hits(p + i);
    while (hits != 0) {
      if (confirm(i + static_cast<std::size_t>(std::countr_zero(hits)))) {
        return true;
      }
      hits &= hits - 1;
    }
  }
  if (i < span) {
    // Tail: re-load the last 16 bytes (overlapped — never reads past
    // the allocation) and drop the low bits already scanned above.
    const std::size_t j = n - 16;
    unsigned hits = chunk_hits(p + j) >> (i - j);
    while (hits != 0) {
      if (confirm(i + static_cast<std::size_t>(std::countr_zero(hits)))) {
        return true;
      }
      hits &= hits - 1;
    }
  }
  return false;
#else
  return payload_contains(hay, a) || payload_contains(hay, b);
#endif
}

/// A compiled expression; empty ops == "not compilable", evaluate the
/// retained SymRef generically instead.
struct Program {
  std::vector<Op> ops;
  bool compiled() const { return !ops.empty(); }
};

struct CompiledPred {
  symex::SymRef expr;  ///< specialized expression (rendering + fallback)
  Program prog;
};

struct CompiledWrite {
  std::string field;  ///< DSL field name
  symex::SymRef expr;
  Program prog;
};

struct CompiledSend {
  std::vector<CompiledWrite> writes;  ///< sorted by field name
  symex::SymRef port_expr;
  Program port_prog;
  bool const_port = false;      ///< port_prog is a single constant push
  runtime::Int port_const = 0;  ///< that constant, read without dispatch
};

struct CompiledUpdate {
  std::string var;
  symex::SymRef expr;
  Program prog;  ///< compiled only for integer-typed right-hand sides
  /// In-place map-set fast path: set when expr is
  /// MapStore(MapBase(var), key, val) — the "install one flow entry"
  /// shape every stateful corpus NF uses. eval_concrete's copy-on-store
  /// semantics rebuild the whole map per packet (O(flow count)); the
  /// engine instead evaluates key/val and writes one slot of its own
  /// (deep-copied) map. Falls back to the generic expr whenever the
  /// variable does not currently hold a map, which is exactly the case
  /// where materialize_map starts from empty.
  bool map_set = false;
  symex::SymRef key_expr;
  symex::SymRef val_expr;
  Program val_prog;  ///< compiled when val is integer-typed and total
};

struct CompiledLeaf {
  int entry = -1;  ///< model entry index; -1 = default drop
  std::vector<CompiledSend> sends;
  std::vector<CompiledUpdate> updates;
};

/// Flat decision node. Edge encoding: >= 0 -> next node index,
/// < 0 -> leaf index ~edge (i.e. -edge - 1).
struct FlatNode {
  std::int32_t pred = 0;
  std::int32_t on_true = 0;
  std::int32_t on_false = 0;
  std::int32_t on_except = 0;
};

struct CompiledTable {
  std::string nf_name;
  std::vector<CompiledPred> preds;
  std::vector<Needle> needles;  ///< payload_contains literals, precompiled
  std::vector<FlatNode> nodes;
  std::vector<CompiledLeaf> leaves;  ///< leaves[0] is always default drop
  std::int32_t root = -1;            ///< edge encoding (may point at a leaf)
  FddStats stats;
  std::size_t compiled_preds = 0;  ///< preds with a stack program

  /// Deterministic text rendering — the golden-dump format
  /// (tests/golden/dataplane/). Byte-identical at any --jobs width.
  std::string to_text() const;
};

struct CompileOptions {
  /// Concrete initial values (model::initial_store). Config scalars and
  /// lists found here are substituted into throw-free expressions before
  /// predicate compilation; state variables are never substituted.
  const std::map<std::string, runtime::Value>* bindings = nullptr;
  FddOptions fdd;
};

/// Lower a synthesized model into its compiled form. Deterministic in
/// the model (and bindings); throws std::runtime_error on FDD budget
/// exhaustion.
CompiledTable compile(const model::Model& m, const CompileOptions& opts = {});

/// Output of a batch run. Reuse one instance across batches: clear() is
/// logical — Send slots (and their payload buffers) stay constructed and
/// are overwritten in place on the next run, so a steady-state batch
/// loop does no per-send allocation at all.
struct BatchOutput {
  struct Send {
    int port = 0;
    std::int32_t src = 0;  ///< index of the input packet that produced it
    /// The sent packet. Sends that forward the input unmodified borrow
    /// it (zero-copy) — such views stay valid while the input batch is
    /// alive and until the engine's next execute_batch on this output;
    /// sends with header rewrites own their bytes.
    const netsim::Packet& packet() const {
      return view_ != nullptr ? *view_ : owned_;
    }

   private:
    friend class DataplaneEngine;
    const netsim::Packet* view_ = nullptr;
    netsim::Packet owned_;
  };
  std::vector<std::int32_t> matched;  ///< per input packet: entry or -1

  std::span<const Send> sends() const { return {pool_.data(), used_}; }
  void clear() {
    matched.clear();
    used_ = 0;
  }

 private:
  friend class DataplaneEngine;
  /// Next slot to fill; the caller bumps used_ once the slot is valid.
  Send& next_slot() {
    if (used_ == pool_.size()) pool_.emplace_back();
    return pool_[used_];
  }
  std::vector<Send> pool_;
  std::size_t used_ = 0;
};

// Compatibility shim: perfbench/ still names Tier and EngineOptions.
// Both stay, in this smallest form, until the next benchmark change;
// the engine ignores them — threaded code is its only executor.
enum class Tier : std::uint8_t { kThreaded = 2 };
struct EngineOptions {
  Tier tier = Tier::kThreaded;
};

struct ThreadedCode;  // dataplane/threaded.h

/// Executes a compiled table over concrete packets, maintaining the
/// oisVar state exactly like model::ModelInterpreter. The constructor
/// lowers the table to threaded code (dataplane/threaded.h), which every
/// entry point below runs. The table must outlive the engine.
class DataplaneEngine {
 public:
  DataplaneEngine(const CompiledTable& table,
                  std::map<std::string, runtime::Value> store,
                  EngineOptions opts = {});
  ~DataplaneEngine();
  DataplaneEngine(DataplaneEngine&&) = delete;
  DataplaneEngine& operator=(DataplaneEngine&&) = delete;

  /// Batch loop: every packet in order, appending to `out`.
  void execute_batch(std::span<const netsim::Packet> packets,
                     BatchOutput& out);

  /// Batch loop over a subset of `packets` selected by `idx`, in idx
  /// order. Send::src and `out.matched` positions refer to the *idx
  /// positions* (matched[j] is the verdict for packets[idx[j]], and
  /// sends carry src = idx[j], the global packet index) — this is the
  /// zero-copy substrate ShardedDataplane partitions batches with.
  void execute_indexed(std::span<const netsim::Packet> packets,
                       std::span<const std::int32_t> idx, BatchOutput& out);

  /// Single-packet convenience with ModelInterpreter-shaped output (the
  /// differential legs compare these directly).
  model::ModelOutput process(const netsim::Packet& in);

  const runtime::Value* state(const std::string& name) const;
  void set_state(const std::string& name, runtime::Value v);
  const std::map<std::string, runtime::Value>& store() const { return store_; }

 private:
  /// Emit a matched leaf's sends into `out` (Send::src = src), then
  /// commit its state updates atomically.
  void apply_leaf(const CompiledLeaf& leaf, const netsim::Packet& in,
                  std::int32_t src, BatchOutput& out);
  void apply_writes(netsim::Packet& p, const CompiledSend& s,
                    const netsim::Packet& in);
  runtime::Int eval_port(const CompiledSend& s, const netsim::Packet& in);
  runtime::Int run_program(const Program& prog, const netsim::Packet& in) const;
  /// Executor entry points, defined in threaded.cpp.
  template <typename IdxFn>
  void batch_threaded(std::span<const netsim::Packet> packets,
                      std::size_t count, IdxFn idx, BatchOutput& out);
  /// Vectored batch executor (threaded.cpp): sweeps the op graph in
  /// topological order, each op draining a queue of packet indices.
  /// Taken by batch_threaded for large generic-free batches.
  template <typename IdxFn>
  void batch_vectored(std::span<const netsim::Packet> packets,
                      std::size_t count, IdxFn idx, BatchOutput& out);
  template <typename IdxFn>
  void batch_vectored_block(std::span<const netsim::Packet> packets,
                            std::size_t b0, std::size_t b1, IdxFn idx,
                            BatchOutput& out);

  const CompiledTable& table_;
  std::map<std::string, runtime::Value> store_;
  const netsim::Packet* cur_ = nullptr;  ///< packet the env closures read
  symex::ConcreteEnv env_;               ///< built once, reused per packet
  std::unique_ptr<ThreadedCode> threaded_;  ///< the lowered table
  /// batch_vectored scratch, reused across batches: one packet-index
  /// queue per threaded op, plus the per-packet terminal pc. Engine
  /// state like store_ — never shared across threads.
  std::vector<std::vector<std::int32_t>> vec_q_;
  std::vector<std::int32_t> vec_term_;
  BatchOutput one_;  ///< process() scratch: its one-packet batch
};

}  // namespace nfactor::dataplane
