// Threaded code: the dataplane engine's one executor (docs/dataplane.md).
//
// DataplaneEngine lowers a CompiledTable's FlatNode array once, at
// construction, into a contiguous *threaded program*:
//
//   - predicates are *split*: a pure stack program is rebuilt into its
//     and/or/not expression tree, which becomes a chain of single-test
//     ops wired together by branch targets, so conjunctions and
//     disjunctions short-circuit — a packet that fails `dport == 21`
//     never pays the payload scan behind it;
//   - each single test is one superinstruction: comparisons load the
//     field as a raw byte/half/word at a precomputed offset into
//     netsim::Packet (kCmpRaw8/16/32; computed fields keep the generic
//     reader via kCmpGen) and branch through a 3-bit relation mask —
//     no comparison-opcode dispatch at all; mask-tests, payload
//     needles, and the residual stack-program / symbolic fallbacks get
//     their own opcodes;
//   - branch targets are pre-resolved to instruction offsets; an edge
//     that pointed at node j becomes node j's entry pc, an edge that
//     pointed at leaf l becomes the pc of that leaf's *terminal op*.
//     Constant-port forward and drop leaves terminate the packet
//     without any environment setup (kForward/kDrop); everything else
//     falls back to the shared generic leaf application (kLeaf).
//
// Dispatch is computed goto (&&label address table), so this code
// builds with GCC and Clang only.
//
// Batches additionally get *vectored* execution when every test op is
// pure: instead of running each packet to completion (one long
// dependency chain of cache misses on big working sets), the executor
// sweeps the op graph once in topological order, each op draining a
// queue of packet indices, so loads are independent across packets and
// their misses overlap. Terminals still apply in input order — outputs
// and state transitions are byte-identical to the scalar loop. See
// batch_vectored in threaded.cpp.
//
// Equivalence with model::ModelInterpreter is enforced corpus-wide by
// tests/dataplane_test.cpp and the fuzz oracle's compiled leg; the
// lowered code of every corpus NF is pinned by the goldens in
// tests/golden/dataplane/<nf>.threaded.txt.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "dataplane/engine.h"

namespace nfactor::dataplane {

/// Threaded opcodes. The first block is the single-test shapes the
/// predicate splitter emits; kProg/kGeneric are the fallbacks (stack
/// program / symbolic evaluator) for trees the splitter cannot take
/// apart; the terminal block ends a packet. Order matters: the
/// computed-goto label table in threaded.cpp is indexed by this enum.
enum class TOp : std::uint8_t {
  kCmpRaw8,   ///< u8  at off, relation-mask branch against k1
  kCmpRaw16,  ///< u16 at off
  kCmpRaw32,  ///< u32 at off
  kCmpGen,    ///< netsim::read_field(f1) (computed fields: len, eth_*, in_port)
  kMaskCmp,     ///< (load & k2) vs k1 — the tcp_flags bit-test shape
  kContains,    ///< payload needle k1
  kContainsOr,  ///< needle k1 OR needle k2, one fused SWAR pass
  kProg,        ///< stack program preds[aux].prog
  kGeneric,   ///< symex::eval_concrete on preds[aux].expr (may throw)
  kForward,   ///< terminal: single const-port unmodified send
  kDrop,      ///< terminal: no sends, no updates
  kLeaf,      ///< terminal: generic leaf application (leaves[aux])
};

/// One direct-threaded instruction. Test ops use {t, f, x} as the pcs
/// to jump to on true/false/exception; terminal ops use {aux, entry,
/// port} to finish the packet without touching the leaf table on the
/// pure paths.
///
/// Comparisons are branchless inside the op: the loaded value's
/// relation to k1 indexes mask3 (bit 0 = less, bit 1 = equal, bit 2 =
/// greater), so one op covers all six comparison operators with zero
/// per-op comparison dispatch. cmp1 keeps the source operator purely
/// for the text rendering.
struct ThreadedOp {
  TOp op = TOp::kDrop;
  OpCode cmp1 = OpCode::kEq;  ///< source comparison (to_text only)
  std::uint8_t mask3 = 0;     ///< relation mask: bit per {lt, eq, gt}
  std::uint8_t w = 0;         ///< kMaskCmp load width (1/2/4; 0 = generic)
  netsim::FieldId f1{};
  std::uint16_t off = 0;  ///< raw byte offset into netsim::Packet
  std::int32_t t = 0;     ///< pc on true
  std::int32_t f = 0;     ///< pc on false
  std::int32_t x = 0;     ///< pc on exception (kGeneric only)
  runtime::Int k1 = 0, k2 = 0;  ///< constants / needle indices / masks
  std::int32_t aux = 0;   ///< pred index (kProg/kGeneric), leaf index (terminals)
  std::int32_t entry = -1;  ///< terminals: model entry (-1 = default drop)
  std::int32_t port = 0;    ///< kForward: the constant port
};

/// The lowered program: code[0..node_ops) holds the split test chains
/// (node i's entry is node_pc[i]; a node lowers to one *or more* ops),
/// code[node_ops..] holds one terminal per leaf.
struct ThreadedCode {
  std::vector<ThreadedOp> code;
  std::vector<std::int32_t> node_pc;  ///< entry pc per FlatNode
  /// Test-block pcs in topological order (every branch edge points to a
  /// later entry or a terminal), reachable ops only — the sweep order of
  /// the vectored batch executor. Empty when the entry is a terminal.
  std::vector<std::int32_t> topo;
  std::int32_t entry_pc = 0;
  std::size_t node_ops = 0;  ///< ops in the test block (>= nodes: splitting)
  std::size_t fused_ops = 0;    ///< single-test superinstruction ops
  std::size_t prog_ops = 0;     ///< ops running a whole stack program
  std::size_t generic_ops = 0;  ///< ops on the symbolic fallback
  std::size_t split_nodes = 0;  ///< nodes lowered to more than one op
  std::size_t scan_ops = 0;  ///< kContains + kContainsOr ops (payload readers)
  std::size_t pure_terminals = 0;  ///< kForward + kDrop terminals

  /// Deterministic text rendering (the second half of nf-synth
  /// --compile). Byte-identical at any --jobs width.
  std::string to_text(const CompiledTable& table) const;
};

/// Lower a compiled table into threaded code. Pure function of the
/// table, so it is exactly as deterministic as compile() itself.
ThreadedCode lower_threaded(const CompiledTable& table);

/// Always true: computed goto is the only dispatch. Compatibility shim
/// for perfbench/, which stamps the dispatch mode into its records; it
/// stays until the next benchmark change.
bool threaded_dispatch_is_computed_goto();

}  // namespace nfactor::dataplane
