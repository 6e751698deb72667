#include "symex/solver.h"

#include <algorithm>
#include <functional>
#include <limits>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <unordered_set>
#include <utility>

#include "lang/int_ops.h"
#include "obs/obs.h"

namespace nfactor::symex {

bool expr_less(const SymRef& a, const SymRef& b) {
  if (a.get() == b.get()) return false;
  if (a->fp != b->fp) return a->fp < b->fp;
  if (struct_eq(a, b)) return false;
  return a->key() < b->key();  // fingerprint collision: rare, exact
}

namespace {

using lang::BinOp;

constexpr Int kMin = std::numeric_limits<Int>::min();
constexpr Int kMax = std::numeric_limits<Int>::max();

/// Sorted, deduplicated view of a conjunction (expr_less order). Shared
/// by the checker and the cache key so the verdict is a pure function of
/// the constraint *set*: the solver's split budget (kMaxSplits) is
/// consumed in ingestion order, so without a canonical order `a && b`
/// and `b && a` could degrade differently.
std::vector<SymRef> canonicalize(const std::vector<SymRef>& constraints) {
  std::vector<SymRef> sorted = constraints;
  std::sort(sorted.begin(), sorted.end(), expr_less);
  sorted.erase(std::unique(sorted.begin(), sorted.end(),
                           [](const SymRef& a, const SymRef& b) {
                             return struct_eq(a, b);
                           }),
               sorted.end());
  return sorted;
}

std::vector<std::uint64_t> fps_of(const std::vector<SymRef>& canon) {
  std::vector<std::uint64_t> fps;
  fps.reserve(canon.size());
  for (const auto& c : canon) fps.push_back(c->fp);
  return fps;
}

struct TermState {
  Int lo = kMin;
  Int hi = kMax;
  std::set<Int> forbidden;
  int uf_parent = -1;  // index into term table
};

class Checker {
 public:
  bool run(const std::vector<SymRef>& cs) {
    for (const auto& c : cs) {
      if (!add(c, /*polarity=*/true)) return false;
    }
    return search();
  }

 private:
  /// Case-split over collected disjunctions (DPLL-style, depth-bounded).
  /// SAT if some branch assignment is consistent; disjunctions beyond the
  /// split budget degrade to opaque atoms (sound: may over-report SAT).
  bool search() {
    if (!check_terms()) return false;
    if (splits_.empty()) return true;

    // Take one disjunction and try each side on a copy of the state.
    auto [lhs, rhs, polarity] = splits_.back();
    splits_.pop_back();
    for (const SymRef& disjunct : {lhs, rhs}) {
      Checker branch = *this;
      branch.split_depth_ = split_depth_ + 1;
      if (branch.add(disjunct, polarity) && branch.search()) return true;
    }
    return false;
  }
  // ---- term table / union-find ----

  /// Terms are identified by node: hashed by fingerprint, confirmed with
  /// struct_eq (a pointer compare under the interner), and the map holds
  /// the SymRef itself so every term a Linear view ever produced —
  /// including expressions the tuple decomposition builds on the fly —
  /// stays alive for the checker's lifetime.
  int term_id(const SymRef& e) {
    const auto it = ids_.find(e);
    if (it != ids_.end()) return it->second;
    const int id = static_cast<int>(terms_.size());
    ids_.emplace(e, id);
    terms_.push_back({});
    terms_.back().uf_parent = id;
    if (const Int hi = intrinsic_max(e); hi >= 0) {
      terms_.back().lo = 0;
      terms_.back().hi = hi;
    }
    return id;
  }

  /// The largest value a term can take whatever the constraints say, the
  /// smallest being 0, or -1 for a full-range term. Packet header fields
  /// have known widths (pkt.dport > 70000 is unsatisfiable), `x % c` lies
  /// in [0, c-1] for c > 0 (DSL modulo takes the divisor's sign) and
  /// `x & m` in [0, m] for m >= 0.
  static Int intrinsic_max(const SymRef& e) {
    if (e->kind == SymKind::kBin && e->bin_op == BinOp::kMod &&
        is_const_int(e->operands[1]) && e->operands[1]->int_val > 0) {
      return e->operands[1]->int_val - 1;
    }
    if (e->kind == SymKind::kBin && e->bin_op == BinOp::kBitAnd) {
      for (const SymRef& m : e->operands) {
        if (is_const_int(m) && m->int_val >= 0) return m->int_val;
      }
      return -1;
    }
    // Packet fields are kVar terms named "pkt.<field>" (or
    // "pktN.<field>" in multi-packet sequences).
    static const std::map<std::string, Int, std::less<>> kFieldMax = {
        {"sport", 0xFFFF},         {"dport", 0xFFFF},
        {"eth_type", 0xFFFF},      {"ip_id", 0xFFFF},
        {"tcp_win", 0xFFFF},       {"len", 0xFFFF},
        {"ip_proto", 0xFF},        {"ip_ttl", 0xFF},
        {"ip_tos", 0xFF},          {"tcp_flags", 0xFF},
        {"in_port", 0xFF},         {"ip_src", 0xFFFFFFFF},
        {"ip_dst", 0xFFFFFFFF},    {"tcp_seq", 0xFFFFFFFF},
        {"tcp_ack", 0xFFFFFFFF},   {"eth_src", 0xFFFFFFFFFFFF},
        {"eth_dst", 0xFFFFFFFFFFFF}};
    if (e->kind != SymKind::kVar) return -1;
    const std::string_view name = e->str_val;
    const auto dot = name.find('.');
    if (dot == std::string_view::npos || name.substr(0, 3) != "pkt") return -1;
    const auto it = kFieldMax.find(name.substr(dot + 1));
    return it == kFieldMax.end() ? -1 : it->second;
  }

  int find(int x) {
    while (terms_[static_cast<std::size_t>(x)].uf_parent != x) {
      x = terms_[static_cast<std::size_t>(x)].uf_parent =
          terms_[static_cast<std::size_t>(terms_[static_cast<std::size_t>(x)].uf_parent)]
              .uf_parent;
    }
    return x;
  }

  bool unite(int a, int b) {
    a = find(a);
    b = find(b);
    if (a == b) return true;
    // Merge b into a.
    TermState& ta = terms_[static_cast<std::size_t>(a)];
    TermState& tb = terms_[static_cast<std::size_t>(b)];
    ta.lo = std::max(ta.lo, tb.lo);
    ta.hi = std::min(ta.hi, tb.hi);
    ta.forbidden.insert(tb.forbidden.begin(), tb.forbidden.end());
    tb.uf_parent = a;
    // Re-point disequalities lazily (checked against find()).
    return true;
  }

  bool narrow(int t, Int lo, Int hi) {
    TermState& ts = terms_[static_cast<std::size_t>(find(t))];
    ts.lo = std::max(ts.lo, lo);
    ts.hi = std::min(ts.hi, hi);
    return ts.lo <= ts.hi;
  }

  bool forbid(int t, Int v) {
    terms_[static_cast<std::size_t>(find(t))].forbidden.insert(v);
    return true;
  }

  // ---- atom ingestion ----

  bool add(const SymRef& e, bool polarity) {
    if (is_const_bool(e)) return e->bool_val == polarity;

    if (e->kind == SymKind::kUn && e->un_op == lang::UnOp::kNot) {
      return add(e->operands[0], !polarity);
    }

    if (e->kind == SymKind::kBin) {
      switch (e->bin_op) {
        case BinOp::kAnd:
          if (polarity) {
            return add(e->operands[0], true) && add(e->operands[1], true);
          }
          // !(a && b) == !a || !b : case-split.
          if (split_depth_ + splits_.size() < kMaxSplits) {
            splits_.push_back({e->operands[0], e->operands[1], false});
            return true;
          }
          break;  // over budget: opaque
        case BinOp::kOr:
          if (!polarity) {
            return add(e->operands[0], false) && add(e->operands[1], false);
          }
          if (split_depth_ + splits_.size() < kMaxSplits) {
            splits_.push_back({e->operands[0], e->operands[1], true});
            return true;
          }
          break;  // over budget: opaque
        case BinOp::kEq: case BinOp::kNe: case BinOp::kLt:
        case BinOp::kLe: case BinOp::kGt: case BinOp::kGe:
          return add_cmp(e, polarity);
        default:
          break;
      }
    }

    return add_atom(e, polarity);
  }

  // Opaque boolean atom (Contains, uninterpreted call, residual Or...).
  // Polarity conflicts are detected on node identity: same atom under
  // both polarities is unsatisfiable.
  bool add_atom(const SymRef& e, bool polarity) {
    const auto it = bool_atoms_.find(e);
    if (it != bool_atoms_.end() && it->second != polarity) return false;
    bool_atoms_.emplace(e, polarity);
    return true;
  }

  static BinOp apply_polarity(BinOp op, bool polarity) {
    if (polarity) return op;
    switch (op) {
      case BinOp::kEq: return BinOp::kNe;
      case BinOp::kNe: return BinOp::kEq;
      case BinOp::kLt: return BinOp::kGe;
      case BinOp::kGe: return BinOp::kLt;
      case BinOp::kGt: return BinOp::kLe;
      case BinOp::kLe: return BinOp::kGt;
      default: return op;
    }
  }

  /// (term, offset) view of an int expression: expr = term + offset, or
  /// pure constant (term = nullptr). The DSL's `+` and `-` wrap, so the
  /// view keeps `e` whole, as an opaque term, wherever the sum could
  /// wrap: when the offsets overflow, or when a term of finite range
  /// would leave int64. A full-range term is still read as unbounded.
  struct Linear {
    SymRef term;  // the term node itself; null for pure constants
    Int offset = 0;
  };

  Linear linearize(const SymRef& e) {
    if (is_const_int(e)) return {nullptr, e->int_val};
    if (e->kind != SymKind::kBin ||
        (e->bin_op != BinOp::kAdd && e->bin_op != BinOp::kSub)) {
      return {e, 0};
    }
    const Linear a = linearize(e->operands[0]);
    const Linear b = linearize(e->operands[1]);
    const bool add = e->bin_op == BinOp::kAdd;
    if ((a.term && b.term) || (!add && b.term)) return {e, 0};
    Int off = 0;
    if (add ? __builtin_add_overflow(a.offset, b.offset, &off)
            : __builtin_sub_overflow(a.offset, b.offset, &off)) {
      return {e, 0};
    }
    const SymRef& term = a.term ? a.term : b.term;
    const Int hi = term ? intrinsic_max(term) : -1;
    Int top = 0;
    if (hi >= 0 && __builtin_add_overflow(hi, off, &top)) return {e, 0};
    return {term, off};
  }

  bool add_cmp(const SymRef& e, bool polarity) {
    const BinOp op = apply_polarity(e->bin_op, polarity);
    const SymRef& lhs = e->operands[0];
    const SymRef& rhs = e->operands[1];

    // Tuple equality: decompose elementwise when arities match.
    const bool lhs_tuple = lhs->kind == SymKind::kTupleExpr ||
                           lhs->kind == SymKind::kConstTuple;
    const bool rhs_tuple = rhs->kind == SymKind::kTupleExpr ||
                           rhs->kind == SymKind::kConstTuple;
    if (op == BinOp::kEq && lhs_tuple && rhs_tuple) {
      const auto elems = [](const SymRef& t) {
        std::vector<SymRef> out;
        if (t->kind == SymKind::kConstTuple) {
          for (const Int v : t->tuple_val) out.push_back(make_int(v));
        } else {
          out = t->operands;
        }
        return out;
      };
      const auto le = elems(lhs);
      const auto re = elems(rhs);
      if (le.size() != re.size()) return false;
      for (std::size_t i = 0; i < le.size(); ++i) {
        if (!add(make_bin(BinOp::kEq, le[i], re[i]), true)) return false;
      }
      return true;
    }

    const Linear a = linearize(lhs);
    const Linear b = linearize(rhs);

    if (!a.term && !b.term) {
      // Fully constant; builders usually folded this already.
      return lang::int_ops::compare(op, a.offset, b.offset).value_or(true);
    }

    if (a.term && b.term) {
      const int ta = term_id(a.term);
      const int tb = term_id(b.term);
      if (struct_eq(a.term, b.term)) {
        // Same term: the relation is decided by the offsets alone.
        return lang::int_ops::compare(op, a.offset, b.offset).value_or(true);
      }
      if (op == BinOp::kEq && a.offset == b.offset) {
        return unite(ta, tb) && constrain_pair(a.term, b.term, kEqMask);
      }
      if (op == BinOp::kNe && a.offset == b.offset) {
        diseq_.emplace_back(ta, tb);
        return constrain_pair(a.term, b.term, kLtMask | kGtMask);
      }
      if (a.offset == b.offset) {
        // Ordering between two distinct terms: track the allowed
        // {<, =, >} relations per pair and detect contradictions like
        // t1 >= t2 && t1 < t2.
        std::uint8_t mask = kLtMask | kEqMask | kGtMask;
        switch (op) {
          case BinOp::kLt: mask = kLtMask; break;
          case BinOp::kLe: mask = kLtMask | kEqMask; break;
          case BinOp::kGt: mask = kGtMask; break;
          case BinOp::kGe: mask = kGtMask | kEqMask; break;
          default: break;
        }
        return constrain_pair(a.term, b.term, mask);
      }
      return true;  // differing offsets: undecided, assume satisfiable
    }

    // term + off OP const
    const SymRef& term = a.term ? a.term : b.term;
    Int c = 0;
    if (a.term ? __builtin_sub_overflow(b.offset, a.offset, &c)
               : __builtin_sub_overflow(a.offset, b.offset, &c)) {
      return add_atom(e, polarity);  // the bound itself leaves int64
    }
    BinOp eff = op;
    if (!a.term) {
      // const OP term  ->  term OP' const
      switch (op) {
        case BinOp::kLt: eff = BinOp::kGt; break;
        case BinOp::kLe: eff = BinOp::kGe; break;
        case BinOp::kGt: eff = BinOp::kLt; break;
        case BinOp::kGe: eff = BinOp::kLe; break;
        default: break;
      }
    }
    const int t = term_id(term);
    switch (eff) {
      case BinOp::kEq: return narrow(t, c, c);
      case BinOp::kNe: return forbid(t, c);
      case BinOp::kLt: return narrow(t, kMin, c == kMin ? kMin : c - 1);
      case BinOp::kLe: return narrow(t, kMin, c);
      case BinOp::kGt: return narrow(t, c == kMax ? kMax : c + 1, kMax);
      case BinOp::kGe: return narrow(t, c, kMax);
      default: return true;
    }
  }

  bool check_terms() {
    for (std::size_t i = 0; i < terms_.size(); ++i) {
      const int r = find(static_cast<int>(i));
      if (r != static_cast<int>(i)) continue;
      const TermState& ts = terms_[static_cast<std::size_t>(r)];
      if (ts.lo > ts.hi) return false;
      if (ts.lo == ts.hi && ts.forbidden.count(ts.lo)) return false;
      // Narrow finite small ranges against forbidden sets.
      if (ts.hi != kMax && ts.lo != kMin && ts.hi - ts.lo < 64) {
        bool any = false;
        for (Int v = ts.lo; v <= ts.hi; ++v) {
          if (!ts.forbidden.count(v)) {
            any = true;
            break;
          }
        }
        if (!any) return false;
      }
    }
    for (const auto& [a, b] : diseq_) {
      if (find(a) == find(b)) return false;
      const TermState& ta = terms_[static_cast<std::size_t>(find(a))];
      const TermState& tb = terms_[static_cast<std::size_t>(find(b))];
      if (ta.lo == ta.hi && tb.lo == tb.hi && ta.lo == tb.lo) return false;
    }
    return true;
  }

  // Allowed-relation masks for ordered term pairs.
  static constexpr std::uint8_t kLtMask = 1;
  static constexpr std::uint8_t kEqMask = 2;
  static constexpr std::uint8_t kGtMask = 4;

  struct PairHash {
    std::size_t operator()(const std::pair<SymRef, SymRef>& p) const {
      // Mixed asymmetrically so (a, b) and (b, a) hash apart.
      const std::uint64_t a = p.first->fp;
      const std::uint64_t b = p.second->fp;
      return static_cast<std::size_t>(a * 0x9e3779b97f4a7c15ULL + b);
    }
  };
  struct PairEq {
    bool operator()(const std::pair<SymRef, SymRef>& x,
                    const std::pair<SymRef, SymRef>& y) const {
      return struct_eq(x.first, y.first) && struct_eq(x.second, y.second);
    }
  };

  /// Intersect the allowed {<, =, >} relations of the (a, b) pair with
  /// `mask`; false when the pair's relation set becomes empty. Pairs are
  /// stored in expr_less orientation so both argument orders land on the
  /// same record.
  bool constrain_pair(SymRef a, SymRef b, std::uint8_t mask) {
    if (expr_less(b, a)) {
      std::swap(a, b);
      // Flip the relation direction for the canonical orientation.
      std::uint8_t flipped = mask & kEqMask;
      if (mask & kLtMask) flipped |= kGtMask;
      if (mask & kGtMask) flipped |= kLtMask;
      mask = flipped;
    }
    auto [it, inserted] = pair_relations_.try_emplace(
        std::make_pair(std::move(a), std::move(b)),
        static_cast<std::uint8_t>(kLtMask | kEqMask | kGtMask));
    (void)inserted;
    it->second &= mask;
    return it->second != 0;
  }

  struct Split {
    SymRef lhs;
    SymRef rhs;
    bool polarity;
  };
  static constexpr std::size_t kMaxSplits = 12;

  std::unordered_map<SymRef, int, RefHash, RefEq> ids_;
  std::vector<TermState> terms_;
  std::vector<std::pair<int, int>> diseq_;
  std::unordered_map<SymRef, bool, RefHash, RefEq> bool_atoms_;
  std::unordered_map<std::pair<SymRef, SymRef>, std::uint8_t, PairHash, PairEq>
      pair_relations_;
  std::vector<Split> splits_;
  std::size_t split_depth_ = 0;
};

/// Symbols through which a conjunct can interact with other conjuncts:
/// named variables, map bases, and whole uninterpreted-call terms,
/// identified by their structural fingerprints. The checker's theories
/// propagate only through struct_eq-identical terms — intervals and
/// forbidden sets are per term, union-find chains need a shared term,
/// and opaque-atom polarity conflicts need the identical atom — and
/// struct_eq implies equal fingerprints, so fingerprint-grouped
/// conjuncts can only *over*-merge (on a collision), never split a
/// real interaction across components. Over-merging is sound: the
/// component just gets checked as one bigger set. Memoized on node
/// identity so shared subtrees are visited once.
void collect_symbols(const SymRef& e, std::set<std::uint64_t>& out,
                     std::unordered_set<const SymExpr*>& visited) {
  if (!visited.insert(e.get()).second) return;
  switch (e->kind) {
    case SymKind::kVar:
    case SymKind::kMapBase:
    case SymKind::kCall:
      // The node fingerprint encodes the kind, so a var, a map base and
      // a call can never alias each other's symbol (short of a 64-bit
      // collision, which only over-merges). For kCall the whole call
      // term is the symbol: links e.g. hash((1,2))==x with hash((1,2))==5
      // even when the arguments carry no variables.
      out.insert(e->fp);
      break;
    default:
      break;
  }
  for (const auto& c : e->operands) collect_symbols(c, out, visited);
  for (const auto& [f, v] : e->fields) {
    (void)f;
    collect_symbols(v, out, visited);
  }
}

/// KLEE-style constraint independence: split a canonicalized conjunction
/// into connected components of the share-a-symbol graph. The
/// conjunction is satisfiable iff every component is (no theory crosses
/// a component boundary), each component gets the full DPLL split budget
/// (never less precise than checking the whole set), and — the point —
/// small components recur across path-condition queries far more often
/// than whole path conditions do, which is what makes the verdict cache
/// hit within a single symbolic-execution run.
std::vector<std::vector<SymRef>> independence_components(
    const std::vector<SymRef>& canon) {
  std::vector<int> parent(canon.size());
  for (std::size_t i = 0; i < canon.size(); ++i) parent[i] = static_cast<int>(i);
  std::function<int(int)> find = [&](int x) {
    while (parent[x] != x) {
      parent[x] = parent[parent[x]];
      x = parent[x];
    }
    return x;
  };

  std::unordered_map<std::uint64_t, int> owner;  // symbol -> first conjunct
  for (std::size_t i = 0; i < canon.size(); ++i) {
    std::set<std::uint64_t> syms;
    std::unordered_set<const SymExpr*> conjunct_visited;
    collect_symbols(canon[i], syms, conjunct_visited);
    if (syms.empty()) syms.insert(0);  // symbol-free conjuncts group
    for (const std::uint64_t s : syms) {
      const auto [it, inserted] = owner.emplace(s, static_cast<int>(i));
      if (!inserted) parent[find(static_cast<int>(i))] = find(it->second);
    }
  }

  // Group by root, preserving the canonical conjunct order within and
  // across components (first-index order), so component keys — and the
  // verdict — stay a pure function of the constraint set.
  std::map<int, std::size_t> root_slot;
  std::vector<std::vector<SymRef>> comps;
  for (std::size_t i = 0; i < canon.size(); ++i) {
    const int r = find(static_cast<int>(i));
    const auto [it, inserted] = root_slot.emplace(r, comps.size());
    if (inserted) comps.emplace_back();
    comps[it->second].push_back(canon[i]);
  }
  return comps;
}

}  // namespace

SolverCache::SolverCache(std::size_t max_entries)
    : max_per_shard_(std::max<std::size_t>(1, max_entries / kShards)) {}

std::size_t SolverCache::KeyHash::operator()(
    const std::vector<std::uint64_t>& key) const {
  std::uint64_t h = 0xcbf29ce484222325ULL ^ key.size();
  for (const std::uint64_t fp : key) {
    h ^= fp;
    h *= 0x100000001b3ULL;
  }
  return static_cast<std::size_t>(h);
}

SolverCache::Shard& SolverCache::shard_for(
    const std::vector<std::uint64_t>& key) {
  return shards_[KeyHash{}(key) % kShards];
}

std::optional<SatResult> SolverCache::lookup(
    const std::vector<SymRef>& constraints) {
  const std::vector<SymRef> canon = canonicalize(constraints);
  const std::vector<std::uint64_t> key = fps_of(canon);
  Shard& s = shard_for(key);
  const std::lock_guard<std::mutex> lock(s.mu);
  const auto it = s.map.find(key);
  // Confirm a fingerprint-key hit elementwise before trusting the
  // verdict: a collision (equal fps, different constraints) is a miss.
  bool confirmed = it != s.map.end() && it->second.conj.size() == canon.size();
  if (confirmed) {
    for (std::size_t i = 0; i < canon.size(); ++i) {
      if (!struct_eq(canon[i], it->second.conj[i])) {
        confirmed = false;
        break;
      }
    }
  }
  if (!confirmed) {
    misses_.fetch_add(1, std::memory_order_relaxed);
    OBS_COUNT("symex.solver.cache.misses");
    return std::nullopt;
  }
  hits_.fetch_add(1, std::memory_order_relaxed);
  OBS_COUNT("symex.solver.cache.hits");
  return it->second.verdict;
}

void SolverCache::insert(const std::vector<SymRef>& constraints,
                         SatResult verdict) {
  std::vector<SymRef> canon = canonicalize(constraints);
  const std::vector<std::uint64_t> key = fps_of(canon);
  Shard& s = shard_for(key);
  const std::lock_guard<std::mutex> lock(s.mu);
  if (s.map.size() >= max_per_shard_ && s.map.find(key) == s.map.end()) {
    // Bulk-evict the full shard: verdicts are cheap to recompute and a
    // full sweep keeps the eviction path trivially O(1) amortized.
    const std::uint64_t dropped = s.map.size();
    s.map.clear();
    evictions_.fetch_add(dropped, std::memory_order_relaxed);
    OBS_COUNT_N("symex.solver.cache.evictions", dropped);
  }
  s.map.emplace(key, Entry{std::move(canon), verdict});
}

std::vector<std::uint64_t> SolverCache::canonical_key(
    const std::vector<SymRef>& constraints) {
  return fps_of(canonicalize(constraints));
}

std::size_t SolverCache::size() const {
  std::size_t n = 0;
  for (const auto& s : shards_) {
    const std::lock_guard<std::mutex> lock(s.mu);
    n += s.map.size();
  }
  return n;
}

SolverCacheStats SolverCache::stats() const {
  SolverCacheStats st;
  st.hits = hits_.load(std::memory_order_relaxed);
  st.misses = misses_.load(std::memory_order_relaxed);
  st.evictions = evictions_.load(std::memory_order_relaxed);
  return st;
}

void SolverCache::clear() {
  for (auto& s : shards_) {
    const std::lock_guard<std::mutex> lock(s.mu);
    s.map.clear();
  }
}

SatResult Solver::check(const std::vector<SymRef>& constraints) {
  ++queries_;
  OBS_TIMER_NS("symex.solver.query_ns");
  OBS_COUNT("symex.solver.queries");
  const std::vector<SymRef> canon = canonicalize(constraints);

  // Check (and memoize) per independence component: the conjunction is
  // SAT iff every component is. Whole path conditions are nearly always
  // novel, but their components recur constantly.
  bool sat = true;
  bool all_from_cache = true;
  for (const auto& comp : independence_components(canon)) {
    std::optional<SatResult> verdict;
    if (cache_ != nullptr) verdict = cache_->lookup(comp);
    if (!verdict) {
      all_from_cache = false;
      verdict = Checker().run(comp) ? SatResult::kSat : SatResult::kUnsat;
      if (cache_ != nullptr) cache_->insert(comp, *verdict);
    }
    if (*verdict == SatResult::kUnsat) {
      sat = false;
      break;
    }
  }

  // Query-level accounting: a query "hit" only when every component it
  // needed was already cached, so hits + misses == query_count() and the
  // hit rate reads as "queries answered without running the checker".
  if (cache_ != nullptr) {
    if (all_from_cache) {
      ++cache_hits_;
    } else {
      ++cache_misses_;
    }
  }
  OBS_COUNT(sat ? "symex.solver.sat" : "symex.solver.unsat");
  return sat ? SatResult::kSat : SatResult::kUnsat;
}

}  // namespace nfactor::symex
