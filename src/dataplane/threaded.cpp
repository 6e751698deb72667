#include "dataplane/threaded.h"

#include <algorithm>
#include <cstring>
#include <optional>
#include <sstream>

#include "obs/obs.h"

namespace nfactor::dataplane {

namespace {

using runtime::Int;

/// Relation mask: the comparison is true for which of {v<k, v==k, v>k}.
std::uint8_t mask_of(OpCode c) {
  switch (c) {
    case OpCode::kEq: return 0b010;
    case OpCode::kNe: return 0b101;
    case OpCode::kLt: return 0b001;
    case OpCode::kLe: return 0b011;
    case OpCode::kGt: return 0b100;
    default: return 0b110;  // kGe
  }
}

/// Mirror a comparison so the field ends up on the left.
OpCode flip_cmp(OpCode c) {
  switch (c) {
    case OpCode::kLt: return OpCode::kGt;
    case OpCode::kLe: return OpCode::kGe;
    case OpCode::kGt: return OpCode::kLt;
    case OpCode::kGe: return OpCode::kLe;
    default: return c;  // kEq / kNe are symmetric
  }
}

bool is_cmp(OpCode c) {
  return c == OpCode::kEq || c == OpCode::kNe || c == OpCode::kLt ||
         c == OpCode::kLe || c == OpCode::kGt || c == OpCode::kGe;
}

const char* cmp_name(OpCode c) {
  switch (c) {
    case OpCode::kEq: return "==";
    case OpCode::kNe: return "!=";
    case OpCode::kLt: return "<";
    case OpCode::kLe: return "<=";
    case OpCode::kGt: return ">";
    default: return ">=";
  }
}

/// Expression-tree node reconstructed from a stack Program, so the
/// splitter can walk and/or/not structure instead of a linear op list.
struct PNode {
  OpCode code;
  Int imm = 0;
  int a = -1, b = -1;
};

std::optional<int> parse_tree(const std::vector<Op>& ops,
                              std::vector<PNode>& pn) {
  std::vector<int> st;
  for (const Op& op : ops) {
    switch (op.code) {
      case OpCode::kPushConst:
      case OpCode::kPushField:
      case OpCode::kPayloadContains:
        pn.push_back({op.code, op.imm});
        st.push_back(static_cast<int>(pn.size()) - 1);
        break;
      case OpCode::kNot:
      case OpCode::kNeg: {
        if (st.empty()) return std::nullopt;
        const int a = st.back();
        pn.push_back({op.code, 0, a});
        st.back() = static_cast<int>(pn.size()) - 1;
        break;
      }
      default: {
        if (st.size() < 2) return std::nullopt;
        const int b = st.back();
        st.pop_back();
        const int a = st.back();
        pn.push_back({op.code, 0, a, b});
        st.back() = static_cast<int>(pn.size()) - 1;
      }
    }
  }
  if (st.size() != 1) return std::nullopt;
  return st[0];
}

/// Branch target while lowering: either a FlatNode edge (resolved once
/// every node's entry pc is known) or the pc of an already-emitted op.
struct Tgt {
  bool is_edge;
  std::int32_t v;
  static Tgt edge(std::int32_t e) { return {true, e}; }
  static Tgt pc(std::int32_t p) { return {false, p}; }
};

struct Lowerer {
  const CompiledTable& t;
  ThreadedCode& c;
  struct Patch {
    std::size_t op;
    int slot;  // 0 = t, 1 = f, 2 = x
    std::int32_t edge;
  };
  std::vector<Patch> patches;

  void wire(std::size_t op, int slot, Tgt g) {
    std::int32_t& ref = slot == 0   ? c.code[op].t
                        : slot == 1 ? c.code[op].f
                                    : c.code[op].x;
    if (g.is_edge) {
      patches.push_back({op, slot, g.v});
      ref = 0;
    } else {
      ref = g.v;
    }
  }

  std::int32_t emit(const ThreadedOp& o, Tgt tt, Tgt ff, Tgt xx) {
    const std::size_t idx = c.code.size();
    c.code.push_back(o);
    wire(idx, 0, tt);
    wire(idx, 1, ff);
    wire(idx, 2, xx);
    return static_cast<std::int32_t>(idx);
  }

  std::int32_t emit_cmp_field(netsim::FieldId f, OpCode cmp, Int k, Tgt tt,
                              Tgt ff, Tgt xx) {
    ThreadedOp o;
    o.cmp1 = cmp;
    o.mask3 = mask_of(cmp);
    o.k1 = k;
    o.f1 = f;
    const netsim::FieldSpec& spec = netsim::packet_field(f);
    o.off = spec.off;
    o.op = spec.width == 1   ? TOp::kCmpRaw8
           : spec.width == 2 ? TOp::kCmpRaw16
           : spec.width == 4 ? TOp::kCmpRaw32
                             : TOp::kCmpGen;
    ++c.fused_ops;
    return emit(o, tt, ff, xx);
  }

  std::int32_t emit_contains(Int needle, Tgt tt, Tgt ff, Tgt xx) {
    ThreadedOp o;
    o.op = TOp::kContains;
    o.k1 = needle;
    ++c.fused_ops;
    ++c.scan_ops;
    return emit(o, tt, ff, xx);
  }

  /// contains(k1) || contains(k2) as one op: the fused SWAR pass scans
  /// the payload once for both needles' first bytes instead of running
  /// two separate sweeps (scans are pure, so collapsing the
  /// short-circuit is observationally identical).
  std::int32_t emit_contains_or(Int n1, Int n2, Tgt tt, Tgt ff, Tgt xx) {
    ThreadedOp o;
    o.op = TOp::kContainsOr;
    o.k1 = n1;
    o.k2 = n2;
    ++c.fused_ops;
    ++c.scan_ops;
    return emit(o, tt, ff, xx);
  }

  /// Lower `value cmp k` where value is a field or a (field & mask)
  /// bit-test; anything else defeats the splitter.
  std::optional<std::int32_t> emit_cmp(const std::vector<PNode>& pn,
                                       int value, OpCode cmp, Int k, Tgt tt,
                                       Tgt ff, Tgt xx) {
    const PNode& v = pn[value];
    if (v.code == OpCode::kPushField) {
      return emit_cmp_field(static_cast<netsim::FieldId>(v.imm), cmp, k, tt,
                            ff, xx);
    }
    if (v.code == OpCode::kBitAnd) {
      const PNode* fld = &pn[v.a];
      const PNode* msk = &pn[v.b];
      if (fld->code == OpCode::kPushConst) std::swap(fld, msk);
      if (fld->code != OpCode::kPushField ||
          msk->code != OpCode::kPushConst) {
        return std::nullopt;
      }
      ThreadedOp o;
      o.op = TOp::kMaskCmp;
      o.cmp1 = cmp;
      o.mask3 = mask_of(cmp);
      o.k1 = k;
      o.k2 = msk->imm;
      o.f1 = static_cast<netsim::FieldId>(fld->imm);
      const netsim::FieldSpec& spec = netsim::packet_field(o.f1);
      o.off = spec.off;
      o.w = spec.width;
      ++c.fused_ops;
      return emit(o, tt, ff, xx);
    }
    return std::nullopt;
  }

  /// Lower "pn[n] is nonzero -> tt else ff" as a chain of single-test
  /// ops with short-circuit branching. Emission order is right operand
  /// first (so the left test knows its chain target), which only
  /// affects pc layout, never semantics. Returns the entry pc, or
  /// nullopt if the tree has a shape the splitter cannot take apart —
  /// the caller then rolls back and keeps the whole stack program.
  // NOLINTNEXTLINE(misc-no-recursion)
  std::optional<std::int32_t> lower_bool(const std::vector<PNode>& pn, int n,
                                         Tgt tt, Tgt ff, Tgt xx) {
    const PNode& e = pn[n];
    switch (e.code) {
      case OpCode::kAnd: {
        // Pure predicate: skipping the right term when the left decides
        // is exactly run_program's (a != 0 && b != 0), minus the work.
        const auto rhs = lower_bool(pn, e.b, tt, ff, xx);
        if (!rhs) return std::nullopt;
        return lower_bool(pn, e.a, Tgt::pc(*rhs), ff, xx);
      }
      case OpCode::kOr: {
        // Or of two payload scans fuses into a single-pass op instead
        // of a short-circuit chain of two sweeps.
        if (pn[static_cast<std::size_t>(e.a)].code ==
                OpCode::kPayloadContains &&
            pn[static_cast<std::size_t>(e.b)].code ==
                OpCode::kPayloadContains) {
          return emit_contains_or(pn[static_cast<std::size_t>(e.a)].imm,
                                  pn[static_cast<std::size_t>(e.b)].imm, tt,
                                  ff, xx);
        }
        const auto rhs = lower_bool(pn, e.b, tt, ff, xx);
        if (!rhs) return std::nullopt;
        return lower_bool(pn, e.a, tt, Tgt::pc(*rhs), xx);
      }
      case OpCode::kNot:
        return lower_bool(pn, e.a, ff, tt, xx);
      case OpCode::kPayloadContains:
        return emit_contains(e.imm, tt, ff, xx);
      case OpCode::kPushField:
        return emit_cmp_field(static_cast<netsim::FieldId>(e.imm),
                              OpCode::kNe, 0, tt, ff, xx);
      default:
        if (!is_cmp(e.code)) return std::nullopt;
        if (pn[static_cast<std::size_t>(e.b)].code == OpCode::kPushConst) {
          return emit_cmp(pn, e.a, e.code,
                          pn[static_cast<std::size_t>(e.b)].imm, tt, ff, xx);
        }
        if (pn[static_cast<std::size_t>(e.a)].code == OpCode::kPushConst) {
          return emit_cmp(pn, e.b, flip_cmp(e.code),
                          pn[static_cast<std::size_t>(e.a)].imm, tt, ff, xx);
        }
        return std::nullopt;
    }
  }

  std::int32_t lower_node(std::size_t i) {
    const FlatNode& n = t.nodes[i];
    const CompiledPred& p = t.preds[static_cast<std::size_t>(n.pred)];
    const Tgt tt = Tgt::edge(n.on_true);
    const Tgt ff = Tgt::edge(n.on_false);
    const Tgt xx = Tgt::edge(n.on_except);
    if (p.prog.compiled()) {
      // Try to split the stack program into a short-circuit test chain;
      // roll back to a single kProg op when any subtree resists.
      const std::size_t code_mark = c.code.size();
      const std::size_t patch_mark = patches.size();
      const std::size_t fused_mark = c.fused_ops;
      std::vector<PNode> pn;
      const auto root = parse_tree(p.prog.ops, pn);
      if (root) {
        const auto entry = lower_bool(pn, *root, tt, ff, xx);
        if (entry) {
          if (c.code.size() - code_mark > 1) ++c.split_nodes;
          return *entry;
        }
      }
      c.code.resize(code_mark);
      patches.resize(patch_mark);
      c.fused_ops = fused_mark;
      ThreadedOp o;
      o.op = TOp::kProg;
      o.aux = n.pred;
      ++c.prog_ops;
      return emit(o, tt, ff, xx);
    }
    ThreadedOp o;
    o.op = TOp::kGeneric;
    o.aux = n.pred;
    ++c.generic_ops;
    return emit(o, tt, ff, xx);
  }
};

}  // namespace

// ---------------------------------------------------------------------------
// Lowering
// ---------------------------------------------------------------------------

ThreadedCode lower_threaded(const CompiledTable& t) {
  ThreadedCode c;
  const std::size_t nn = t.nodes.size();
  c.node_pc.resize(nn);
  Lowerer lw{t, c, {}};
  for (std::size_t i = 0; i < nn; ++i) {
    c.node_pc[i] = lw.lower_node(i);
  }
  c.node_ops = c.code.size();
  for (std::size_t l = 0; l < t.leaves.size(); ++l) {
    const CompiledLeaf& leaf = t.leaves[l];
    ThreadedOp o;
    o.aux = static_cast<std::int32_t>(l);
    o.entry = leaf.entry;
    if (leaf.updates.empty() && leaf.sends.empty()) {
      o.op = TOp::kDrop;
      ++c.pure_terminals;
    } else if (leaf.updates.empty() && leaf.sends.size() == 1 &&
               leaf.sends[0].writes.empty() && leaf.sends[0].const_port) {
      o.op = TOp::kForward;
      o.port = static_cast<std::int32_t>(leaf.sends[0].port_const);
      ++c.pure_terminals;
    } else {
      o.op = TOp::kLeaf;
    }
    c.code.push_back(o);
  }
  // Edge -> pc: node edges resolve to the node's entry op, leaf edges
  // to the leaf's terminal op appended after the test block.
  const auto resolve = [&](std::int32_t e) -> std::int32_t {
    return e >= 0 ? c.node_pc[static_cast<std::size_t>(e)]
                  : static_cast<std::int32_t>(c.node_ops) + ~e;
  };
  for (const auto& p : lw.patches) {
    std::int32_t& ref = p.slot == 0   ? c.code[p.op].t
                        : p.slot == 1 ? c.code[p.op].f
                                      : c.code[p.op].x;
    ref = resolve(p.edge);
  }
  c.entry_pc = resolve(t.root);
  // Topological order of the reachable test ops (reverse postorder DFS
  // from the entry over t/f/x edges): the vectored batch executor sweeps
  // ops in this order, so every branch it takes lands on an op that has
  // not been drained yet. The FDD is a DAG and within-node split chains
  // are acyclic, so the lowered graph is too; the cycle check is pure
  // paranoia — tripping it just leaves topo empty, which disables the
  // vectored path and keeps the scalar dispatch loop.
  const auto test_ops = static_cast<std::int32_t>(c.node_ops);
  if (c.entry_pc < test_ops) {
    std::vector<std::uint8_t> mark(c.node_ops, 0);  // 0 new, 1 open, 2 done
    std::vector<std::pair<std::int32_t, int>> st;
    std::vector<std::int32_t> post;
    post.reserve(c.node_ops);
    bool cyclic = false;
    st.emplace_back(c.entry_pc, 0);
    mark[static_cast<std::size_t>(c.entry_pc)] = 1;
    while (!st.empty() && !cyclic) {
      auto& top = st.back();
      const std::int32_t pc = top.first;
      const ThreadedOp& o = c.code[static_cast<std::size_t>(pc)];
      const std::int32_t nexts[3] = {o.t, o.f, o.x};
      bool descended = false;
      while (top.second < 3) {
        const std::int32_t nx = nexts[top.second++];
        if (nx >= test_ops) continue;  // terminal edge
        const std::uint8_t m = mark[static_cast<std::size_t>(nx)];
        if (m == 1) {
          cyclic = true;
          break;
        }
        if (m == 0) {
          mark[static_cast<std::size_t>(nx)] = 1;
          st.emplace_back(nx, 0);  // invalidates `top`; re-take next round
          descended = true;
          break;
        }
      }
      if (descended || cyclic) continue;
      mark[static_cast<std::size_t>(pc)] = 2;
      post.push_back(pc);
      st.pop_back();
    }
    if (!cyclic) c.topo.assign(post.rbegin(), post.rend());
  }
  OBS_GAUGE("dataplane.threaded.ops", c.code.size());
  OBS_GAUGE("dataplane.threaded.generic_ops", c.generic_ops);
  OBS_GAUGE("dataplane.threaded.split_nodes", c.split_nodes);
  return c;
}

bool threaded_dispatch_is_computed_goto() { return true; }

// ---------------------------------------------------------------------------
// to_text()
// ---------------------------------------------------------------------------

std::string ThreadedCode::to_text(const CompiledTable& table) const {
  std::ostringstream os;
  os << "# nfactor dataplane threaded v1\n";
  os << "nf: " << table.nf_name << "\n";
  os << "ops: " << code.size() << " = " << node_ops << " tests over "
     << node_pc.size() << " nodes (" << fused_ops << " fused, " << prog_ops
     << " prog, " << generic_ops << " gen, " << split_nodes << " split) + "
     << (code.size() - node_ops) << " terminals (" << pure_terminals
     << " pure)\n";
  os << "entry: pc" << entry_pc << "\n";
  os << "code:\n";
  // Node-entry annotations: which pcs begin a FlatNode's test chain.
  std::vector<std::int32_t> entry_of(code.size(), -1);
  for (std::size_t i = 0; i < node_pc.size(); ++i) {
    entry_of[static_cast<std::size_t>(node_pc[i])] =
        static_cast<std::int32_t>(i);
  }
  const auto needle = [&](Int k) {
    return "s" + std::to_string(k) + ":\"" +
           table.needles[static_cast<std::size_t>(k)].text + "\"";
  };
  for (std::size_t i = 0; i < code.size(); ++i) {
    const ThreadedOp& o = code[i];
    os << "  pc" << i << ": ";
    if (i < node_ops && entry_of[i] >= 0) os << "[n" << entry_of[i] << "] ";
    const auto edges = [&](bool with_x = false) {
      os << " -> t:pc" << o.t << " f:pc" << o.f;
      if (with_x) os << " !:pc" << o.x;
    };
    switch (o.op) {
      case TOp::kCmpRaw8:
      case TOp::kCmpRaw16:
      case TOp::kCmpRaw32:
      case TOp::kCmpGen: {
        static constexpr const char* kWidth[] = {"cmp8", "cmp16", "cmp32",
                                                 "cmp"};
        os << kWidth[static_cast<std::size_t>(o.op)] << " "
           << netsim::packet_field(o.f1).name << " " << cmp_name(o.cmp1)
           << " " << o.k1;
        edges();
        break;
      }
      case TOp::kMaskCmp:
        os << "test (" << netsim::packet_field(o.f1).name << " & " << o.k2
           << ") " << cmp_name(o.cmp1) << " " << o.k1;
        edges();
        break;
      case TOp::kContains:
        os << "contains " << needle(o.k1);
        edges();
        break;
      case TOp::kContainsOr:
        os << "contains-or " << needle(o.k1) << " | " << needle(o.k2);
        edges();
        break;
      case TOp::kProg:
        os << "prog p" << o.aux;
        edges();
        break;
      case TOp::kGeneric:
        os << "gen p" << o.aux;
        edges(/*with_x=*/true);
        break;
      case TOp::kForward:
        os << "forward L" << o.aux << " entry " << o.entry << " port "
           << o.port;
        break;
      case TOp::kDrop:
        os << "drop L" << o.aux;
        if (o.entry >= 0) os << " entry " << o.entry;
        break;
      case TOp::kLeaf:
        os << "leaf L" << o.aux << " entry " << o.entry;
        break;
    }
    os << "\n";
  }
  return os.str();
}

// ---------------------------------------------------------------------------
// Execution
// ---------------------------------------------------------------------------

namespace {

/// Branchless comparison resolve: v's relation to k1 (0 = less, 1 =
/// equal, 2 = greater) indexes the precomputed truth mask.
inline std::int32_t cmp_branch(const ThreadedOp& o, Int v) {
  const int rel = static_cast<int>(v > o.k1) - static_cast<int>(v < o.k1) + 1;
  return ((o.mask3 >> rel) & 1) != 0 ? o.t : o.f;
}

inline Int load_u16(const std::uint8_t* p) {
  std::uint16_t v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

inline Int load_u32(const std::uint8_t* p) {
  std::uint32_t v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

inline Int load_masked(const ThreadedOp& o, const std::uint8_t* base,
                       const netsim::Packet& in) {
  switch (o.w) {
    case 1: return base[o.off];
    case 2: return load_u16(base + o.off);
    case 4: return load_u32(base + o.off);
    default: return netsim::read_field(in, o.f1);
  }
}

struct SeqIdx {
  std::int32_t operator()(std::size_t i) const {
    return static_cast<std::int32_t>(i);
  }
};
struct ArrIdx {
  const std::int32_t* idx;
  std::int32_t operator()(std::size_t i) const { return idx[i]; }
};

/// Batches at least this large take the vectored executor (when the
/// program qualifies); smaller ones stay on the scalar dispatch loop,
/// whose per-packet cost has no queue traffic to amortize.
constexpr std::size_t kVectoredMinBatch = 64;

/// Vectored sweep block size. Large enough that a sweep exposes plenty
/// of independent misses to the memory system, small enough that a
/// block's packet headers and queues stay cache-resident across all the
/// ops that touch them (256 packets x ~3 lines ~= 48 KiB).
constexpr std::size_t kVectoredBlock = 256;

}  // namespace

// Vectored execution: sweep the op graph, not the packet list.
//
// The scalar dispatch loop runs each packet to completion before
// touching the next, so on working sets past L2 the batch degenerates
// into one long dependency chain of cache misses — every packet's
// header load and payload-pointer chase stalls behind the previous
// packet's, and the out-of-order window can only overlap a couple of
// neighbors. Profiling dpi showed exactly this: ~60% of its per-packet
// cost was the *first touch* of the payload bytes, which no amount of
// op-level fusion can remove.
//
// The vectored executor (the VPP idea, applied to threaded code)
// instead visits each *op* once, in topological order, draining a queue
// of packet indices: all loads issued inside one op's sweep belong to
// different packets, so they are independent and the core overlaps
// their misses instead of serializing them. A payload-scan op that cost
// a full L3 round trip per packet in the scalar loop now pipelines
// those round trips across its whole queue. Short-circuit structure is
// preserved exactly — a packet whose dport test fails is simply never
// pushed onto the scan op's queue.
//
// Eligibility: every test op must be pure (kGeneric may throw and needs
// per-packet environment setup, so any generic op disables the path —
// the lowering statistics make that a one-integer check). Terminals run
// in a final pass in *input order*, so sends, state updates, and the
// matched vector are byte-identical to the scalar loop's; the only
// thing reordered is the evaluation of side-effect-free predicates.
template <typename IdxFn>
void DataplaneEngine::batch_vectored(std::span<const netsim::Packet> packets,
                                     std::size_t count, IdxFn idx,
                                     BatchOutput& out) {
  vec_q_.resize(threaded_->code.size());
  vec_term_.resize(count);
  out.matched.reserve(out.matched.size() + count);
  // Sweep in blocks, not the whole batch at once: a block's packet
  // headers (~3 cache lines each) fit L1/L2, so only the *first* op
  // that touches a packet pays its miss — overlapped across the block —
  // and every later op re-hits cache. Whole-batch sweeps measured
  // *slower* than the scalar loop on shallow programs: each op's pass
  // re-walked a multi-megabyte header working set and re-missed L2 per
  // packet, forfeiting the locality the scalar loop gets for free.
  for (std::size_t b0 = 0; b0 < count; b0 += kVectoredBlock) {
    const std::size_t b1 = std::min(count, b0 + kVectoredBlock);
    batch_vectored_block(packets, b0, b1, idx, out);
  }
  OBS_COUNT_N("dataplane.packets", count);
}

/// One vectored block: seed the entry queue, sweep the op graph in
/// topological order, then apply terminals in input order.
template <typename IdxFn>
void DataplaneEngine::batch_vectored_block(
    std::span<const netsim::Packet> packets, std::size_t b0, std::size_t b1,
    IdxFn idx, BatchOutput& out) {
  const ThreadedCode& tc = *threaded_;
  const ThreadedOp* const code = tc.code.data();
  const std::vector<Needle>& needles = table_.needles;
  const auto test_ops = static_cast<std::int32_t>(tc.node_ops);
  // Queues carry *local* batch positions so the terminal pass can
  // restore input order; idx() maps them to packet-array slots (the
  // identity for whole batches, the shard's index list when sharded).
  const auto sink = [&](std::int32_t tgt, std::int32_t li) {
    if (tgt < test_ops) {
      vec_q_[static_cast<std::size_t>(tgt)].push_back(li);
    } else {
      vec_term_[static_cast<std::size_t>(li)] = tgt;
    }
  };
  const auto pkt = [&](std::int32_t li) -> const netsim::Packet& {
    return packets[static_cast<std::size_t>(idx(static_cast<std::size_t>(li)))];
  };
  {
    auto& entry_q = vec_q_[static_cast<std::size_t>(tc.entry_pc)];
    entry_q.resize(b1 - b0);
    const bool scans = tc.scan_ops != 0;
    for (std::size_t i = b0; i < b1; ++i) {
      entry_q[i - b0] = static_cast<std::int32_t>(i);
      // Warm the block while building its queue: the op sweeps reach
      // these packets hundreds of nanoseconds from now, so the header
      // line prefetch and — when the program scans payloads — the
      // payload first-touch can complete in their shadow.
      const netsim::Packet& p = pkt(static_cast<std::int32_t>(i));
      __builtin_prefetch(&p);
      if (scans) __builtin_prefetch(p.payload.data());
    }
  }
  for (const std::int32_t pc : tc.topo) {
    auto& q = vec_q_[static_cast<std::size_t>(pc)];
    if (q.empty()) continue;
    const ThreadedOp o = code[pc];
    switch (o.op) {
      case TOp::kCmpRaw8:
        for (const std::int32_t li : q) {
          const auto* base = reinterpret_cast<const std::uint8_t*>(&pkt(li));
          sink(cmp_branch(o, base[o.off]), li);
        }
        break;
      case TOp::kCmpRaw16:
        for (const std::int32_t li : q) {
          const auto* base = reinterpret_cast<const std::uint8_t*>(&pkt(li));
          sink(cmp_branch(o, load_u16(base + o.off)), li);
        }
        break;
      case TOp::kCmpRaw32:
        for (const std::int32_t li : q) {
          const auto* base = reinterpret_cast<const std::uint8_t*>(&pkt(li));
          sink(cmp_branch(o, load_u32(base + o.off)), li);
        }
        break;
      case TOp::kCmpGen:
        for (const std::int32_t li : q) {
          sink(cmp_branch(o, netsim::read_field(pkt(li), o.f1)), li);
        }
        break;
      case TOp::kMaskCmp:
        for (const std::int32_t li : q) {
          const netsim::Packet& in = pkt(li);
          const auto* base = reinterpret_cast<const std::uint8_t*>(&in);
          sink(cmp_branch(o, load_masked(o, base, in) & o.k2), li);
        }
        break;
      case TOp::kContains: {
        const Needle& n = needles[static_cast<std::size_t>(o.k1)];
        for (const std::int32_t li : q) {
          sink(payload_contains(pkt(li).payload, n) ? o.t : o.f, li);
        }
        break;
      }
      case TOp::kContainsOr: {
        const Needle& n1 = needles[static_cast<std::size_t>(o.k1)];
        const Needle& n2 = needles[static_cast<std::size_t>(o.k2)];
        for (const std::int32_t li : q) {
          sink(payload_contains_either(pkt(li).payload, n1, n2) ? o.t : o.f,
               li);
        }
        break;
      }
      case TOp::kProg: {
        const Program& prog =
            table_.preds[static_cast<std::size_t>(o.aux)].prog;
        for (const std::int32_t li : q) {
          sink(run_program(prog, pkt(li)) != 0 ? o.t : o.f, li);
        }
        break;
      }
      default:  // kGeneric never qualifies; terminals never enter topo
        break;
    }
    q.clear();
  }
  // Terminal pass, input order — the one place state may be touched.
  for (std::size_t i = b0; i < b1; ++i) {
    const std::int32_t gi = idx(i);
    const netsim::Packet* in = &packets[static_cast<std::size_t>(gi)];
    const ThreadedOp& o = code[vec_term_[i]];
    out.matched.push_back(o.entry);
    if (o.op == TOp::kForward) {
      BatchOutput::Send& slot = out.next_slot();
      slot.view_ = in;  // single unmodified send: forward by view
      slot.port = o.port;
      slot.src = gi;
      ++out.used_;
    } else if (o.op != TOp::kDrop) {
      cur_ = in;
      env_.input_packet = in;
      apply_leaf(table_.leaves[static_cast<std::size_t>(o.aux)], *in, gi, out);
    }
  }
}

template <typename IdxFn>
void DataplaneEngine::batch_threaded(std::span<const netsim::Packet> packets,
                                     std::size_t count, IdxFn idx,
                                     BatchOutput& out) {
  // Large generic-free batches take the vectored executor (see the
  // comment above batch_vectored); everything else runs the scalar
  // dispatch loop below.
  if (count >= kVectoredMinBatch && threaded_->generic_ops == 0 &&
      !threaded_->topo.empty()) {
    batch_vectored(packets, count, idx, out);
    return;
  }
  out.matched.reserve(out.matched.size() + count);
  const ThreadedOp* const code = threaded_->code.data();
  const std::vector<Needle>& needles = table_.needles;
  const std::int32_t entry_pc = threaded_->entry_pc;
  std::size_t i = 0;
  std::int32_t gi = 0;
  const netsim::Packet* in = nullptr;
  const std::uint8_t* base = nullptr;
  std::int32_t pc = 0;
  const ThreadedOp* op = nullptr;

  // Direct-threaded dispatch: every op ends by jumping straight to the
  // next op's label through a label-address table. Unlike a switch loop,
  // each op gets its *own* indirect branch, so the predictor can learn
  // the per-op successor distribution (node i's jump almost always
  // targets the same two labels). The batch loop is folded *into* the
  // machine: terminal ops write their output and jump straight to the
  // next packet's entry, so the steady state has no per-packet
  // call/return and no terminal re-decode. Pure terminals
  // (kForward/kDrop) finish without environment setup or leaf-table
  // access — the common case for filter-shaped NFs.
  static const void* const kDispatch[] = {
      &&op_cmp_raw8,  &&op_cmp_raw16,   &&op_cmp_raw32, &&op_cmp_gen,
      &&op_mask_cmp,  &&op_contains,    &&op_contains_or,
      &&op_prog,      &&op_generic,
      &&op_forward,   &&op_drop,        &&op_leaf,
  };
#define NFACTOR_TC_DISPATCH()                         \
  op = code + pc;                                     \
  goto* kDispatch[static_cast<std::size_t>(op->op)]

next_packet:
  if (i == count) goto batch_done;
  gi = idx(i);
  ++i;
  in = &packets[static_cast<std::size_t>(gi)];
  base = reinterpret_cast<const std::uint8_t*>(in);
  pc = entry_pc;
  NFACTOR_TC_DISPATCH();
op_cmp_raw8:
  pc = cmp_branch(*op, base[op->off]);
  NFACTOR_TC_DISPATCH();
op_cmp_raw16:
  pc = cmp_branch(*op, load_u16(base + op->off));
  NFACTOR_TC_DISPATCH();
op_cmp_raw32:
  pc = cmp_branch(*op, load_u32(base + op->off));
  NFACTOR_TC_DISPATCH();
op_cmp_gen:
  pc = cmp_branch(*op, netsim::read_field(*in, op->f1));
  NFACTOR_TC_DISPATCH();
op_mask_cmp:
  pc = cmp_branch(*op, load_masked(*op, base, *in) & op->k2);
  NFACTOR_TC_DISPATCH();
op_contains:
  pc = payload_contains(in->payload,
                        needles[static_cast<std::size_t>(op->k1)])
           ? op->t
           : op->f;
  NFACTOR_TC_DISPATCH();
op_contains_or:
  pc = payload_contains_either(in->payload,
                               needles[static_cast<std::size_t>(op->k1)],
                               needles[static_cast<std::size_t>(op->k2)])
           ? op->t
           : op->f;
  NFACTOR_TC_DISPATCH();
op_prog:
  pc = run_program(table_.preds[static_cast<std::size_t>(op->aux)].prog,
                   *in) != 0
           ? op->t
           : op->f;
  NFACTOR_TC_DISPATCH();
op_generic: {
  cur_ = in;
  env_.input_packet = in;
  bool t;
  try {
    t = symex::eval_concrete_bool(
        table_.preds[static_cast<std::size_t>(op->aux)].expr, env_);
  } catch (const std::exception&) {
    pc = op->x;
    NFACTOR_TC_DISPATCH();
  }
  pc = t ? op->t : op->f;
  NFACTOR_TC_DISPATCH();
}
op_forward: {
  out.matched.push_back(op->entry);
  BatchOutput::Send& slot = out.next_slot();
  slot.view_ = in;  // single unmodified send: forward by view
  slot.port = op->port;
  slot.src = gi;
  ++out.used_;
  goto next_packet;
}
op_drop:
  out.matched.push_back(op->entry);
  goto next_packet;
op_leaf:
  out.matched.push_back(op->entry);
  cur_ = in;
  env_.input_packet = in;
  apply_leaf(table_.leaves[static_cast<std::size_t>(op->aux)], *in, gi, out);
  goto next_packet;
batch_done:;
#undef NFACTOR_TC_DISPATCH
  OBS_COUNT_N("dataplane.packets", count);
}

void DataplaneEngine::execute_batch(std::span<const netsim::Packet> packets,
                                    BatchOutput& out) {
  batch_threaded(packets, packets.size(), SeqIdx{}, out);
}

void DataplaneEngine::execute_indexed(std::span<const netsim::Packet> packets,
                                      std::span<const std::int32_t> idx,
                                      BatchOutput& out) {
  batch_threaded(packets, idx.size(), ArrIdx{idx.data()}, out);
}

}  // namespace nfactor::dataplane
