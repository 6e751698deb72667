#include "symex/executor.h"

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "netsim/packet.h"
#include "obs/obs.h"
#include "runtime/value.h"
#include "symex/concrete_eval.h"

namespace nfactor::symex {

namespace {

using lang::Expr;
using lang::ExprKind;

std::size_t effective_jobs(int jobs) {
  if (jobs > 0) return static_cast<std::size_t>(jobs);
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : hw;
}

}  // namespace

std::string ExecStats::to_string() const {
  std::ostringstream os;
  os << "paths=" << paths_completed << " truncated=" << paths_truncated
     << " pruned=" << paths_pruned << " forks=" << forks
     << " queries=" << solver_queries << " steps=" << steps;
  if (jobs > 1) os << " jobs=" << jobs;
  if (cache_hits + cache_misses > 0) {
    os << " cache=" << cache_hits << "/" << (cache_hits + cache_misses);
  }
  if (hit_path_cap) os << " [path-cap]";
  if (timed_out) os << " [timeout]";
  return os.str();
}

std::string ExecPath::signature() const {
  std::ostringstream os;
  os << "C:";
  std::set<std::string> cond_keys;
  for (const auto& c : constraints) cond_keys.insert(c->key());
  for (const auto& k : cond_keys) os << k << '&';
  os << "|S:";
  for (const auto& s : sends) {
    os << "snd(";
    for (const auto& [f, v] : s.fields) {
      if (f == kPayloadField) continue;
      os << f << '=' << v->key() << ';';
    }
    os << "@" << s.port->key() << ')';
  }
  os << "|T:";
  for (const auto& [var, v] : final_state) {
    // Only record state that actually changed from its initial symbol.
    if (v->kind == SymKind::kVar && v->str_val == var) continue;
    if (v->kind == SymKind::kMapBase && v->str_val == var) continue;
    os << var << '=' << v->key() << ';';
  }
  return os.str();
}

struct SymbolicExecutor::State {
  int node = -1;
  std::map<std::string, SymRef> env;
  std::vector<SymRef> pc;
  std::vector<BranchRecord> branches;
  std::vector<SendRecord> sends;
  std::set<int> nodes;
  std::map<int, int> visits;  // symbolic-branch node -> count
  std::size_t steps = 0;
  /// Branch-decision key: (node, taken ? 0 : 1) pairs, flattened.
  /// Serial DFS continues the true side inline and stacks the false
  /// sibling, so it completes paths exactly in lexicographic key order —
  /// which makes this key the canonical schedule-independent order for
  /// the parallel scheduler: lex-least-first popping reproduces the
  /// serial pop order at jobs=1, the final sort reproduces the serial
  /// output order at any width, and a state's pop-time key lower-bounds
  /// every path in its subtree (a prefix precedes all its extensions),
  /// which is what makes the path-cap survivor set canonical.
  std::vector<int> key;
};

SymRef const_expr_to_sym(const Expr& e) {
  switch (e.kind) {
    case ExprKind::kIntLit:
      return make_int(static_cast<const lang::IntLit&>(e).value);
    case ExprKind::kBoolLit:
      return make_bool(static_cast<const lang::BoolLit&>(e).value);
    case ExprKind::kStrLit:
      return make_str(static_cast<const lang::StrLit&>(e).value);
    case ExprKind::kTupleLit: {
      std::vector<SymRef> elems;
      for (const auto& x : static_cast<const lang::TupleLit&>(e).elems) {
        elems.push_back(const_expr_to_sym(*x));
      }
      return make_tuple(std::move(elems));
    }
    case ExprKind::kListLit: {
      std::vector<SymRef> elems;
      for (const auto& x : static_cast<const lang::ListLit&>(e).elems) {
        elems.push_back(const_expr_to_sym(*x));
      }
      return make_list_const(std::move(elems));
    }
    case ExprKind::kUnary: {
      const auto& u = static_cast<const lang::Unary&>(e);
      return make_un(u.op, const_expr_to_sym(*u.operand));
    }
    case ExprKind::kBinary: {
      const auto& b = static_cast<const lang::Binary&>(e);
      return make_bin(b.op, const_expr_to_sym(*b.lhs), const_expr_to_sym(*b.rhs));
    }
    default:
      throw std::invalid_argument("not a constant expression: " +
                                  lang::to_source(e));
  }
}

SymbolicExecutor::SymbolicExecutor(const ir::Module& m,
                                   const statealyzer::Result& cats)
    : m_(m), cats_(cats) {}

SymRef SymbolicExecutor::initial_global_value(const ir::Global& g) const {
  const bool is_cfg = cats_.is_cfg(g.name);
  switch (g.type) {
    case lang::Type::kMap:
      // State maps start as symbolic bases: membership is a state match.
      // Config maps (static rule tables) are also kept symbolic-base so
      // rule contents parameterize the model.
      return make_map_base(g.name);
    case lang::Type::kList:
    case lang::Type::kStr:
      // Containers/strings concretize from their initializers (bounded
      // loops over them unroll — the style restriction of §3.2).
      try {
        return const_expr_to_sym(*g.init);
      } catch (const std::invalid_argument&) {
        return make_var(g.name, is_cfg ? VarClass::kCfg : VarClass::kState);
      }
    default:
      return make_var(g.name, is_cfg ? VarClass::kCfg : VarClass::kState);
  }
}

SymRef SymbolicExecutor::lookup(const std::string& var, State& st) const {
  const auto it = st.env.find(var);
  if (it != st.env.end()) return it->second;
  // Read of a variable with no definition on this path: give it a fresh
  // opaque symbol (can arise when executing slices or on paths where the
  // defining branch side was not taken in the original code).
  SymRef v = make_var("undef$" + var, VarClass::kLocal);
  st.env.emplace(var, v);
  return v;
}

SymRef SymbolicExecutor::eval_call(const lang::Call& c, State& st) const {
  if (c.callee == "len") {
    const SymRef x = eval(*c.args[0], st);
    if (x->kind == SymKind::kConstList) {
      return make_int(static_cast<Int>(x->operands.size()));
    }
    if (x->kind == SymKind::kConstTuple) {
      return make_int(static_cast<Int>(x->tuple_val.size()));
    }
    if (x->kind == SymKind::kTupleExpr) {
      return make_int(static_cast<Int>(x->operands.size()));
    }
    if (x->kind == SymKind::kConstStr) {
      return make_int(static_cast<Int>(x->str_val.size()));
    }
    return make_call("len", {x});
  }
  if (c.callee == "hash") {
    const SymRef x = eval(*c.args[0], st);
    if (x->kind == SymKind::kConstTuple) {
      return make_int(runtime::dsl_hash(x->tuple_val));
    }
    if (x->kind == SymKind::kConstInt) {
      return make_int(runtime::dsl_hash({x->int_val}));
    }
    return make_call("hash", {x});
  }
  if (c.callee == "payload_contains") {
    const SymRef pkt = eval(*c.args[0], st);
    const SymRef needle = eval(*c.args[1], st);
    SymRef payload_id = make_var(std::string("pkt.") + kPayloadField,
                                 VarClass::kPkt);
    if (pkt->kind == SymKind::kPacket) {
      const auto it = pkt->fields.find(kPayloadField);
      if (it != pkt->fields.end()) payload_id = it->second;
    }
    return make_call("payload_contains", {payload_id, needle});
  }
  throw std::invalid_argument("unsupported pure builtin in symbolic eval: " +
                              c.callee);
}

SymRef SymbolicExecutor::eval(const Expr& e, State& st) const {
  switch (e.kind) {
    case ExprKind::kIntLit:
      return make_int(static_cast<const lang::IntLit&>(e).value);
    case ExprKind::kBoolLit:
      return make_bool(static_cast<const lang::BoolLit&>(e).value);
    case ExprKind::kStrLit:
      return make_str(static_cast<const lang::StrLit&>(e).value);
    case ExprKind::kMapLit:
      return make_map_base("{}" );  // fresh empty map value
    case ExprKind::kVarRef:
      return lookup(static_cast<const lang::VarRef&>(e).name, st);
    case ExprKind::kUnary: {
      const auto& u = static_cast<const lang::Unary&>(e);
      return make_un(u.op, eval(*u.operand, st));
    }
    case ExprKind::kBinary: {
      const auto& b = static_cast<const lang::Binary&>(e);
      if (b.op == lang::BinOp::kIn) {
        return make_contains(eval(*b.rhs, st), eval(*b.lhs, st));
      }
      return make_bin(b.op, eval(*b.lhs, st), eval(*b.rhs, st));
    }
    case ExprKind::kTupleLit: {
      std::vector<SymRef> elems;
      for (const auto& x : static_cast<const lang::TupleLit&>(e).elems) {
        elems.push_back(eval(*x, st));
      }
      return make_tuple(std::move(elems));
    }
    case ExprKind::kListLit: {
      std::vector<SymRef> elems;
      bool all_const = true;
      for (const auto& x : static_cast<const lang::ListLit&>(e).elems) {
        elems.push_back(eval(*x, st));
        all_const &= elems.back()->kind == SymKind::kConstInt ||
                     elems.back()->kind == SymKind::kConstTuple;
      }
      if (all_const) return make_list_const(std::move(elems));
      return make_call("list", std::move(elems));
    }
    case ExprKind::kIndex: {
      const auto& i = static_cast<const lang::Index&>(e);
      const SymRef base = eval(*i.base, st);
      const SymRef idx = eval(*i.index, st);
      if (base->kind == SymKind::kConstTuple) {
        if (is_const_int(idx) && idx->int_val >= 0 &&
            static_cast<std::size_t>(idx->int_val) < base->tuple_val.size()) {
          return make_int(base->tuple_val[static_cast<std::size_t>(idx->int_val)]);
        }
        return make_call("tuple_get", {base, idx});
      }
      if (base->kind == SymKind::kTupleExpr) {
        if (is_const_int(idx) && idx->int_val >= 0 &&
            static_cast<std::size_t>(idx->int_val) < base->operands.size()) {
          return base->operands[static_cast<std::size_t>(idx->int_val)];
        }
        return make_call("tuple_get", {base, idx});
      }
      if (base->kind == SymKind::kConstList) return make_list_get(base, idx);
      if (base->kind == SymKind::kMapBase ||
          base->kind == SymKind::kMapStore) {
        return make_map_get(base, idx);
      }
      // Opaque container value.
      return make_call("get", {base, idx});
    }
    case ExprKind::kField: {
      const auto& f = static_cast<const lang::FieldRef&>(e);
      const SymRef base = eval(*f.base, st);
      if (base->kind == SymKind::kPacket) {
        const auto it = base->fields.find(f.field);
        if (it != base->fields.end()) return it->second;
      }
      return make_call("field_" + f.field, {base});
    }
    case ExprKind::kCall:
      return eval_call(static_cast<const lang::Call&>(e), st);
  }
  throw std::invalid_argument("unhandled expression kind in symbolic eval");
}

std::vector<ExecPath> SymbolicExecutor::run(const ExecOptions& opts,
                                            ExecStats* stats_out) {
  OBS_SPAN_VAR(run_span, "symex.run");
  const auto t0 = std::chrono::steady_clock::now();
  const std::size_t jobs = effective_jobs(opts.jobs);

  // Run-local verdict memo when none was supplied: this run's workers
  // still share verdicts with each other. (Serial runs with no cache get
  // none — exactly today's behavior.)
  std::optional<SolverCache> local_cache;
  SolverCache* cache = opts.solver_cache;
  if (cache == nullptr && jobs > 1) cache = &local_cache.emplace();

  auto elapsed_ms = [&] {
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - t0)
        .count();
  };

  auto node_enabled = [&](int id) {
    return opts.filter == nullptr || opts.filter->count(id) != 0;
  };

  // Initial state.
  State init;
  init.node = m_.body.entry;
  if (opts.initial_globals != nullptr) {
    init.env = *opts.initial_globals;
  } else {
    for (const auto& g : m_.globals) {
      init.env[g.name] = initial_global_value(g);
    }
    // Init-section definitions: treat like state scalars (persistent).
    for (const auto& v : m_.persistent) {
      if (!init.env.count(v)) {
        init.env[v] = make_var(v, cats_.is_cfg(v) ? VarClass::kCfg
                                                  : VarClass::kState);
      }
    }
  }
  if (opts.initial_pc != nullptr) init.pc = *opts.initial_pc;

  struct Finalized {
    std::vector<int> key;
    ExecPath path;
  };

  // Scheduler state shared by all workers under one mutex. The budgets
  // (timeout, path cap) live here, so they are global across workers and
  // checked at the same granularity as the old serial loop: between
  // scheduled states.
  struct Shared {
    std::mutex mu;
    std::condition_variable cv;
    std::vector<State> pending;  // min-heap on State::key, lex-least front
    std::size_t in_flight = 0;   // states currently being executed
    std::vector<Finalized> done;
    /// The max_paths lex-least finalized keys so far. Once full, any
    /// pending state whose pop-time key exceeds the largest entry can be
    /// discarded: every path in its subtree sorts after the survivors —
    /// exactly the work a serial run stops before reaching.
    std::multiset<std::vector<int>> best;
    bool stop = false;
    bool timed_out = false;
    bool discarded = false;  // pending work dropped by the path cap
    ExecStats agg;
    std::exception_ptr error;
  } sh;

  auto heap_less = [](const State& a, const State& b) { return b.key < a.key; };

  // Caller holds sh.mu.
  auto prune_pending = [&] {
    if (sh.best.size() < opts.max_paths) return;
    while (!sh.pending.empty()) {
      if (opts.max_paths > 0 && !(*sh.best.rbegin() < sh.pending.front().key)) {
        break;
      }
      std::pop_heap(sh.pending.begin(), sh.pending.end(), heap_less);
      sh.pending.pop_back();
      sh.discarded = true;
    }
  };

  sh.pending.push_back(std::move(init));

  auto worker = [&](std::size_t worker_id) {
#if NFACTOR_OBS_ENABLED
    // Serial runs keep today's exact trace shape: worker spans only
    // appear at jobs > 1.
    std::optional<obs::Span> worker_span;
    if (jobs > 1) {
      worker_span.emplace(obs::default_tracer(), "symex.worker");
      worker_span->attr("worker", static_cast<std::int64_t>(worker_id));
    }
#else
    (void)worker_id;
#endif
    Solver solver(cache);
    std::size_t local_steps = 0;
    std::size_t local_forks = 0;
    std::size_t local_pruned = 0;
    std::size_t local_states = 0;

#if NFACTOR_OBS_ENABLED
    // Per-continuation profile accumulators (provenance collection hot
    // path — compiled out with the obs kill switch). A continuation is
    // one pop -> finalize run; finalize() moves these into the completed
    // path's PathProfile, which is what makes per-path profiles an exact
    // partition of the worker's measured solver/exec time.
    std::uint64_t cont_queries = 0;
    std::uint64_t cont_solver_ns = 0;
    std::uint64_t local_solver_ns = 0;
    std::vector<std::pair<int, std::uint64_t>> cont_branch_ns;
    std::int64_t cont_t0 = 0;
    const auto prof_now = [] {
      return std::chrono::duration_cast<std::chrono::nanoseconds>(
                 std::chrono::steady_clock::now().time_since_epoch())
          .count();
    };
#endif

    auto finalize = [&](State& st, bool truncated) {
      ExecPath p;
      p.branches = std::move(st.branches);
      for (const auto& b : p.branches) {
        const SymRef eff = b.effective();
        if (!is_const_bool(eff)) p.constraints.push_back(eff);
      }
      p.sends = std::move(st.sends);
      for (const auto& v : m_.persistent) {
        const auto it = st.env.find(v);
        if (it != st.env.end()) p.final_state[v] = it->second;
      }
      p.nodes = std::move(st.nodes);
      p.truncated = truncated;
#if NFACTOR_OBS_ENABLED
      p.profile.solver_queries = cont_queries;
      p.profile.solver_ns = cont_solver_ns;
      p.profile.exec_ns = static_cast<std::uint64_t>(prof_now() - cont_t0);
      p.profile.branch_solver_ns = std::move(cont_branch_ns);
      cont_branch_ns.clear();
#endif
      const std::lock_guard<std::mutex> lock(sh.mu);
      sh.done.push_back({std::move(st.key), std::move(p)});
      if (opts.max_paths > 0) {
        sh.best.insert(sh.done.back().key);
        if (sh.best.size() > opts.max_paths) {
          sh.best.erase(std::prev(sh.best.end()));
        }
      }
      prune_pending();
    };

    while (true) {
      std::optional<State> popped;
      {
        std::unique_lock<std::mutex> lock(sh.mu);
        while (true) {
          if (sh.stop) break;
          if (elapsed_ms() > opts.timeout_ms) {
            sh.timed_out = true;
            sh.stop = true;
            sh.pending.clear();
            sh.cv.notify_all();
            break;
          }
          prune_pending();
          if (!sh.pending.empty()) {
            std::pop_heap(sh.pending.begin(), sh.pending.end(), heap_less);
            popped.emplace(std::move(sh.pending.back()));
            sh.pending.pop_back();
            ++sh.in_flight;
            break;
          }
          if (sh.in_flight == 0) {
            // Natural end: nothing pending, nothing running anywhere.
            sh.stop = true;
            sh.cv.notify_all();
            break;
          }
          // Bounded wait so a sleeping worker still notices the deadline.
          sh.cv.wait_for(lock, std::chrono::milliseconds(50));
        }
      }
      if (!popped) break;
      State st = std::move(*popped);
      ++local_states;
#if NFACTOR_OBS_ENABLED
      cont_queries = 0;
      cont_solver_ns = 0;
      cont_branch_ns.clear();
      cont_t0 = prof_now();
#endif

    // One span per scheduled continuation: from the fork (or the root)
    // that created this state until it terminates or forks off children.
    OBS_SPAN_VAR(path_span, "symex.path");
    const std::size_t steps_before = st.steps;
    try {

    bool done = false;
    while (!done) {
      if (++st.steps > opts.max_steps_per_path) {
        finalize(st, /*truncated=*/true);
        break;
      }
      ++local_steps;
      const ir::Instr& n = m_.body.node(st.node);
      const bool enabled = node_enabled(n.id);
      int next = n.succs.empty() ? m_.body.exit : n.succs[0];

      if (st.node == m_.body.exit) {
        finalize(st, /*truncated=*/false);
        break;
      }
      if (enabled && n.kind != ir::InstrKind::kEntry &&
          n.kind != ir::InstrKind::kExit) {
        st.nodes.insert(n.id);
      }

      switch (n.kind) {
        case ir::InstrKind::kEntry:
        case ir::InstrKind::kExit:
          break;
        case ir::InstrKind::kRecv: {
          std::map<std::string, SymRef> fields;
          for (const auto& f : netsim::kPacketFields) {
            const std::string name(f.name);
            fields[name] = make_var(opts.pkt_prefix + name, VarClass::kPkt);
          }
          fields[kPayloadField] =
              make_var(opts.pkt_prefix + kPayloadField, VarClass::kPkt);
          st.env[n.var] = make_packet(std::move(fields));
          break;
        }
        case ir::InstrKind::kAssign:
          if (enabled) st.env[n.var] = eval(*n.value, st);
          break;
        case ir::InstrKind::kFieldStore:
          if (enabled) {
            const SymRef base = lookup(n.var, st);
            if (base->kind == SymKind::kPacket) {
              auto fields = base->fields;
              fields[n.field] = eval(*n.value, st);
              st.env[n.var] = make_packet(std::move(fields));
            }
          }
          break;
        case ir::InstrKind::kIndexStore:
          if (enabled) {
            const SymRef base = lookup(n.var, st);
            const SymRef key = eval(*n.index, st);
            const SymRef val = eval(*n.value, st);
            if (base->kind == SymKind::kMapBase ||
                base->kind == SymKind::kMapStore) {
              st.env[n.var] = make_map_store(base, key, val);
            } else if (base->kind == SymKind::kConstList &&
                       is_const_int(key) && key->int_val >= 0 &&
                       static_cast<std::size_t>(key->int_val) <
                           base->operands.size()) {
              auto elems = base->operands;
              elems[static_cast<std::size_t>(key->int_val)] = val;
              st.env[n.var] = make_list_const(std::move(elems));
            } else {
              st.env[n.var] = make_call("list_store", {base, key, val});
            }
          }
          break;
        case ir::InstrKind::kSend:
          if (enabled) {
            const SymRef pkt = eval(*n.value, st);
            SendRecord rec;
            if (pkt->kind == SymKind::kPacket) {
              rec.fields = pkt->fields;
            }
            rec.port = eval(*n.aux, st);
            st.sends.push_back(std::move(rec));
          }
          break;
        case ir::InstrKind::kCall:
          if (enabled) {
            if (n.callee == "push") {
              const SymRef q = eval(*n.args[0], st);
              const SymRef v = eval(*n.args[1], st);
              if (n.args[0]->kind == ExprKind::kVarRef) {
                const auto& qn =
                    static_cast<const lang::VarRef&>(*n.args[0]).name;
                st.env[qn] = make_call("list_push", {q, v});
              }
            } else if (n.callee == "pop") {
              const SymRef q = eval(*n.args[0], st);
              if (!n.var.empty()) st.env[n.var] = make_call("list_front", {q});
              if (n.args[0]->kind == ExprKind::kVarRef) {
                const auto& qn =
                    static_cast<const lang::VarRef&>(*n.args[0]).name;
                st.env[qn] = make_call("list_rest", {q});
              }
            }
            // log(): no model-visible effect.
          }
          break;
        case ir::InstrKind::kBranch: {
          if (!enabled) {
            // Sliced-out branch: guards only sliced-out nodes (the slice
            // is control-dependence closed), so skip the loop/if body.
            next = n.succs[1];
            break;
          }
          const SymRef cond = eval(*n.value, st);
          if (is_const_bool(cond)) {
            next = cond->bool_val ? n.succs[0] : n.succs[1];
            break;
          }
          // Symbolic branch: loop bound, then two-sided SAT check.
          if (++st.visits[n.id] > opts.max_loop_iters) {
            finalize(st, /*truncated=*/true);
            done = true;
            break;
          }
          std::vector<SymRef> pc_true = st.pc;
          pc_true.push_back(cond);
          std::vector<SymRef> pc_false = st.pc;
          pc_false.push_back(negate(cond));
#if NFACTOR_OBS_ENABLED
          const std::int64_t q0 = prof_now();
#endif
          const bool sat_t = solver.check(pc_true) == SatResult::kSat;
          const bool sat_f = solver.check(pc_false) == SatResult::kSat;
#if NFACTOR_OBS_ENABLED
          const std::uint64_t qns = static_cast<std::uint64_t>(prof_now() - q0);
          cont_queries += 2;
          cont_solver_ns += qns;
          local_solver_ns += qns;
          cont_branch_ns.emplace_back(n.id, qns);
#endif

          if (sat_t && sat_f) {
            ++local_forks;
            State other = st;  // fork
            other.node = n.succs[1];
            other.pc = std::move(pc_false);
            other.branches.push_back({n.id, cond, false, true});
            other.key.push_back(n.id);
            other.key.push_back(1);  // false side: lex-after the true side
            {
              const std::lock_guard<std::mutex> lock(sh.mu);
              sh.pending.push_back(std::move(other));
              std::push_heap(sh.pending.begin(), sh.pending.end(), heap_less);
              sh.cv.notify_one();
            }

            st.pc = std::move(pc_true);
            st.branches.push_back({n.id, cond, true, true});
            st.key.push_back(n.id);
            st.key.push_back(0);
            next = n.succs[0];
          } else if (sat_t) {
            ++local_pruned;
            st.pc = std::move(pc_true);
            st.branches.push_back({n.id, cond, true});
            st.key.push_back(n.id);
            st.key.push_back(0);
            next = n.succs[0];
          } else if (sat_f) {
            ++local_pruned;
            st.pc = std::move(pc_false);
            st.branches.push_back({n.id, cond, false});
            st.key.push_back(n.id);
            st.key.push_back(1);
            next = n.succs[1];
          } else {
            // Whole state infeasible (should not happen: pc was sat).
            ++local_pruned;
            done = true;
            break;
          }
          break;
        }
      }

      if (!done) st.node = next;
    }
    } catch (...) {
      const std::lock_guard<std::mutex> lock(sh.mu);
      if (!sh.error) sh.error = std::current_exception();
      sh.stop = true;
      --sh.in_flight;
      sh.cv.notify_all();
      break;
    }

      path_span.attr("steps",
                     static_cast<std::int64_t>(st.steps - steps_before));
      {
        const std::lock_guard<std::mutex> lock(sh.mu);
        --sh.in_flight;
        if (sh.in_flight == 0 && sh.pending.empty()) {
          sh.stop = true;
          sh.cv.notify_all();
        }
      }
    }

#if NFACTOR_OBS_ENABLED
    if (worker_span) {
      worker_span->attr("states", static_cast<std::int64_t>(local_states));
      worker_span->attr("steps", static_cast<std::int64_t>(local_steps));
    }
#endif
    {
      const std::lock_guard<std::mutex> lock(sh.mu);
      sh.agg.steps += local_steps;
      sh.agg.forks += local_forks;
      sh.agg.paths_pruned += local_pruned;
      sh.agg.solver_queries += solver.query_count();
      sh.agg.cache_hits += solver.cache_hits();
      sh.agg.cache_misses += solver.cache_misses();
#if NFACTOR_OBS_ENABLED
      sh.agg.solver_ns += local_solver_ns;
#endif
    }
  };

  std::vector<std::thread> threads;
  threads.reserve(jobs > 1 ? jobs - 1 : 0);
  for (std::size_t w = 1; w < jobs; ++w) threads.emplace_back(worker, w);
  worker(0);  // the calling thread is always worker 0
  for (auto& t : threads) t.join();
  if (sh.error) std::rethrow_exception(sh.error);

  // Canonical merge: sort by decision key — exactly the order the serial
  // DFS completes paths in — then trim to the cap's survivor set. This
  // makes the returned vector byte-for-byte independent of the schedule.
  std::sort(sh.done.begin(), sh.done.end(),
            [](const Finalized& a, const Finalized& b) { return a.key < b.key; });
  bool trimmed = false;
  if (sh.done.size() > opts.max_paths) {
    sh.done.resize(opts.max_paths);
    trimmed = true;
  }

  ExecStats stats = sh.agg;
  stats.jobs = jobs;
  stats.timed_out = sh.timed_out;
  stats.hit_path_cap = trimmed || sh.discarded;

  std::vector<ExecPath> paths;
  paths.reserve(sh.done.size());
  for (auto& d : sh.done) {
    if (d.path.truncated) {
      ++stats.paths_truncated;
    } else {
      ++stats.paths_completed;
    }
    d.path.decision_key = std::move(d.key);
    paths.push_back(std::move(d.path));
  }
  stats.wall_ms = elapsed_ms();

  // Aggregate per-run counters into the registry once, off the hot loop.
  OBS_COUNT_N("symex.paths.completed", stats.paths_completed);
  OBS_COUNT_N("symex.paths.truncated", stats.paths_truncated);
  OBS_COUNT_N("symex.paths.pruned", stats.paths_pruned);
  OBS_COUNT_N("symex.forks", stats.forks);
  OBS_COUNT_N("symex.steps", stats.steps);
  if (stats.hit_path_cap) OBS_COUNT("symex.hit_path_cap");
  if (stats.timed_out) OBS_COUNT("symex.timed_out");
  run_span.attr("paths", static_cast<std::int64_t>(paths.size()));
  run_span.attr("steps", static_cast<std::int64_t>(stats.steps));
  run_span.attr("queries", static_cast<std::int64_t>(stats.solver_queries));
  run_span.attr("jobs", static_cast<std::int64_t>(jobs));
  if (stats.cache_hits + stats.cache_misses > 0) {
    run_span.attr("cache_hits", static_cast<std::int64_t>(stats.cache_hits));
    run_span.attr("cache_misses",
                  static_cast<std::int64_t>(stats.cache_misses));
  }

  if (stats_out != nullptr) *stats_out = stats;
  return paths;
}

}  // namespace nfactor::symex
