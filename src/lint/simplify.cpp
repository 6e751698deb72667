#include "lint/simplify.h"

#include <deque>
#include <map>
#include <set>
#include <utility>

#include "obs/obs.h"

namespace nfactor::lint {

namespace {

using analysis::ConstVal;

std::string base_of(const ir::Location& loc) {
  std::string base;
  return ir::split_field_loc(loc, &base, nullptr) ? base : loc;
}

using Lookup = std::function<ConstVal(const ir::Location&)>;

lang::ExprPtr make_literal(const ConstVal& v, lang::SourceLoc loc) {
  switch (v.kind) {
    case ConstVal::Kind::kInt: {
      auto e = std::make_unique<lang::IntLit>(v.i, loc);
      e->type = lang::Type::kInt;
      return e;
    }
    case ConstVal::Kind::kBool: {
      auto e = std::make_unique<lang::BoolLit>(v.b, loc);
      e->type = lang::Type::kBool;
      return e;
    }
    case ConstVal::Kind::kStr: {
      auto e = std::make_unique<lang::StrLit>(v.s, loc);
      e->type = lang::Type::kStr;
      return e;
    }
    default:
      return nullptr;
  }
}

bool is_literal(const lang::Expr& e) {
  return e.kind == lang::ExprKind::kIntLit ||
         e.kind == lang::ExprKind::kBoolLit ||
         e.kind == lang::ExprKind::kStrLit;
}

/// Replace `e`'s maximal constant subtrees with literals, in place, and
/// return e's value under the node's fixpoint environment. Each subtree
/// is evaluated once: a Unary or Binary combines its operands' values
/// (analysis::eval_step). A folded subtree counts once in *folds, not
/// once per operand folded on the way up.
ConstVal fold_expr(lang::ExprPtr& e, const Lookup& lookup, int* folds) {
  int inner = 0;  // folds below e; dropped when e itself folds
  const auto fold_all = [&](std::vector<lang::ExprPtr>& xs) {
    for (auto& x : xs) fold_expr(x, lookup, &inner);
  };
  // Calls, indexing and container literals are never constants.
  ConstVal v = ConstVal::bottom();
  switch (e->kind) {
    case lang::ExprKind::kUnary:
      v = analysis::eval_step(
          *e, fold_expr(static_cast<lang::Unary&>(*e).operand, lookup, &inner),
          ConstVal::top());
      break;
    case lang::ExprKind::kBinary: {
      auto& b = static_cast<lang::Binary&>(*e);
      const ConstVal l = fold_expr(b.lhs, lookup, &inner);
      v = analysis::eval_step(*e, l, fold_expr(b.rhs, lookup, &inner));
      break;
    }
    case lang::ExprKind::kCall:
      fold_all(static_cast<lang::Call&>(*e).args);
      break;
    case lang::ExprKind::kIndex: {
      auto& ix = static_cast<lang::Index&>(*e);
      fold_expr(ix.base, lookup, &inner);
      fold_expr(ix.index, lookup, &inner);
      break;
    }
    case lang::ExprKind::kTupleLit:
      fold_all(static_cast<lang::TupleLit&>(*e).elems);
      break;
    case lang::ExprKind::kListLit:
      fold_all(static_cast<lang::ListLit&>(*e).elems);
      break;
    default:  // literals, VarRef, FieldRef, MapLit
      v = analysis::eval_const(*e, lookup);
      break;
  }
  if (v.is_const() && !is_literal(*e)) {
    ++*folds;
    e = make_literal(v, e->loc);
  } else {
    *folds += inner;
  }
  return v;
}

}  // namespace

analysis::ConstEnv config_env(const ir::Module& m) {
  // Globals evaluate in declaration order; an initializer may reference
  // earlier globals. Unknown references read Bottom (not Top: there is
  // no "later definition" to wait for at init time).
  analysis::ConstEnv globals_env;
  for (const auto& g : m.globals) {
    ConstVal v = analysis::eval_const(
        *g.init, [&globals_env](const ir::Location& loc) {
          const auto it = globals_env.find(loc);
          return it == globals_env.end() ? ConstVal::bottom() : it->second;
        });
    if (v.is_top()) v = ConstVal::bottom();
    globals_env[g.name] = v;
  }

  // Init-section statements may overwrite or add persistents.
  const analysis::ConstProp init_cp(m.init, globals_env);
  if (m.init.exit < 0 || !init_cp.node_executable(m.init.exit)) return {};

  analysis::ConstEnv out;
  for (const auto& v : m.persistent) {
    const ConstVal val = init_cp.value_in(m.init.exit, v);
    if (val.is_const()) out[v] = val;
  }
  // Anything the packet loop updates (weakly or strongly) is state, not
  // config.
  for (const auto& n : m.body.nodes) {
    for (const auto& d : n->defs()) {
      out.erase(d);
      out.erase(base_of(d));
    }
  }
  return out;
}

SimplifyStats simplify_module(ir::Module& m, const SimplifyOptions& opts) {
  SimplifyStats st;
  if (!opts.enabled) return st;

  obs::Span sp(obs::default_tracer(), "lint.simplify");
  sp.attr("nf", m.name);

  analysis::ConstEnv env;
  for (const auto& v : m.persistent) env[v] = ConstVal::bottom();
  for (const auto& g : m.globals) env[g.name] = ConstVal::bottom();
  if (opts.fold_config) {
    for (auto& [k, v] : config_env(m)) env[k] = v;
  }
  const analysis::ConstProp cp(m.body, std::move(env));
  ir::Cfg& cfg = m.body;

  // 1. Branches decided at fixpoint (only on executable nodes: an
  //    unreachable branch's environment is meaningless).
  std::map<int, int> decided;  // branch id -> taken successor slot
  for (const auto& n : cfg.nodes) {
    if (n->kind != ir::InstrKind::kBranch || n->succs.size() != 2) continue;
    if (!cp.node_executable(n->id)) continue;
    const ConstVal d = cp.branch_decision(n->id);
    if (d.kind == ConstVal::Kind::kBool) decided[n->id] = d.b ? 0 : 1;
  }

  // 2. resolve(): skip over chains of decided branches. A cycle of
  //    decided branches is a provably-infinite loop — bail out entirely.
  const auto resolve = [&](int t) -> int {
    std::set<int> seen;
    while (t >= 0 && decided.count(t)) {
      if (!seen.insert(t).second) return -1;
      t = cfg.node(t).succs[static_cast<std::size_t>(decided.at(t))];
    }
    return t;
  };

  // 3. Reachability over resolved edges; keep order stable by old id.
  std::set<int> keep;
  std::deque<int> wl;
  const int start = resolve(cfg.entry);
  if (start < 0) return SimplifyStats{};
  wl.push_back(start);
  keep.insert(start);
  while (!wl.empty()) {
    const int id = wl.front();
    wl.pop_front();
    for (const int s : cfg.node(id).succs) {
      const int t = resolve(s);
      if (t < 0) return SimplifyStats{};
      if (keep.insert(t).second) wl.push_back(t);
    }
  }
  if (!keep.count(cfg.exit) || !keep.count(cfg.entry) ||
      (m.recv_port_node >= 0 && !keep.count(m.recv_port_node))) {
    return SimplifyStats{};  // pruning would break the pipeline's anchors
  }

  // 4. Rebuild the CFG: move kept nodes over in old-id order, folding
  //    expressions of executable nodes under their fixpoint environments.
  //    The moved-from slots are never read again: resolve() only walks
  //    decided branches, which are never kept, and the fixpoint rows
  //    are indexed by old id.
  const std::size_t old_real = cfg.real_nodes().size();
  std::map<int, int> remap;
  for (const auto& n : cfg.nodes) {
    if (keep.count(n->id)) {
      const int nid = static_cast<int>(remap.size());
      remap[n->id] = nid;
    }
  }

  ir::Cfg out;
  out.nodes.reserve(remap.size());
  for (auto& n : cfg.nodes) {
    const int old_id = n->id;
    if (!keep.count(old_id)) continue;
    if (cp.node_executable(old_id)) {
      const Lookup lookup = [&cp, old_id](const ir::Location& loc) {
        return cp.value_in(old_id, loc);
      };
      const auto fold = [&](lang::ExprPtr& e) {
        if (e) fold_expr(e, lookup, &st.exprs_folded);
      };
      fold(n->index);
      fold(n->value);
      fold(n->aux);
      for (auto& a : n->args) fold(a);
    }
    n->id = remap.at(old_id);
    for (int& s : n->succs) s = remap.at(resolve(s));
    n->preds.clear();
    out.nodes.push_back(std::move(n));
  }
  for (const auto& n : out.nodes) {
    for (const int s : n->succs) {
      out.nodes[static_cast<std::size_t>(s)]->preds.push_back(n->id);
    }
  }
  out.entry = remap.at(resolve(cfg.entry));
  out.exit = remap.at(cfg.exit);

  st.branches_pruned = static_cast<int>(decided.size());
  st.nodes_removed =
      static_cast<int>(old_real) - static_cast<int>(out.real_nodes().size());

  m.body = std::move(out);
  if (m.recv_port_node >= 0) m.recv_port_node = remap.at(m.recv_port_node);

  OBS_GAUGE("simplify.branches_pruned", st.branches_pruned);
  OBS_GAUGE("simplify.exprs_folded", st.exprs_folded);
  OBS_GAUGE("simplify.nodes_removed", st.nodes_removed);
  sp.attr("branches_pruned", static_cast<std::int64_t>(st.branches_pruned));
  sp.attr("exprs_folded", static_cast<std::int64_t>(st.exprs_folded));
  return st;
}

}  // namespace nfactor::lint
