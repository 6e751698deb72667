#include "lint/checks.h"

#include <algorithm>
#include <map>
#include <string>

#include "analysis/dataflow.h"
#include "analysis/reaching_defs.h"
#include "lang/lexer.h"

namespace nfactor::lint {

namespace {

using analysis::ConstVal;

std::string base_of(const ir::Location& loc) {
  std::string base;
  return ir::split_field_loc(loc, &base, nullptr) ? base : loc;
}

/// Compiler-introduced temporaries (`__tN`) and inlined return slots
/// (`callee$N$ret`) — their def/use shape is the lowerer's business, not
/// the NF author's.
bool compiler_generated(const std::string& var) {
  if (lang::is_temporary(var)) return true;
  const auto n = var.size();
  return n >= 4 && var.compare(n - 4, 4, "$ret") == 0;
}

}  // namespace

// NF201: a non-persistent variable may be read before any assignment
// reaches the read. Forward definite assignment over the def/use table's
// variable ids, met by intersection: a variable is safe at a node only
// when every CFG path to it contains a strong whole-variable def.
void check_use_before_init(const CheckContext& ctx) {
  const ir::Cfg& cfg = ctx.m.body;
  const analysis::DefUse& du = ctx.pdg.def_use();
  const auto tracked = [&](const std::string& v) {
    return ctx.m.persistent.count(v) == 0 && v != ctx.m.pkt_var;
  };

  // Strong whole-variable defs initialize; pop()'s result is always
  // assigned too. Container element stores do not initialize the
  // container.
  const auto transfer = [&](int node, std::uint64_t* row) {
    const ir::Instr& n = cfg.node(node);
    if (n.kind == ir::InstrKind::kAssign || n.kind == ir::InstrKind::kRecv ||
        (n.kind == ir::InstrKind::kCall && !n.var.empty())) {
      analysis::BitRows::set(row, static_cast<std::size_t>(du.find_var(n.var)));
    }
  };
  const analysis::BitRows assigned =
      analysis::solve(cfg, analysis::Direction::kForward,
                      analysis::Meet::kIntersect,
                      static_cast<std::size_t>(du.num_vars()), transfer)
          .in;

  std::set<std::string> reported;
  for (const auto& n : cfg.nodes) {
    const std::uint64_t* in = assigned.row(static_cast<std::size_t>(n->id));
    for (const auto& u : n->uses()) {
      const std::string v = base_of(u);
      const auto id = static_cast<std::size_t>(du.find_var(v));
      if (!tracked(v) || analysis::BitRows::test(in, id) ||
          !reported.insert(v).second) {
        continue;
      }
      ctx.sink.report(n->loc, lang::Severity::kWarning, "NF201",
                      "'" + v + "' may be used before initialization");
    }
  }
}

// NF202: an assignment to a per-packet local whose value no later
// statement can read (liveness-dead store).
void check_dead_store(const CheckContext& ctx) {
  const ir::Cfg& cfg = ctx.m.body;
  for (const auto& n : cfg.nodes) {
    if (n->kind != ir::InstrKind::kAssign) continue;
    const std::string& v = n->var;
    if (ctx.m.persistent.count(v) || v == ctx.m.pkt_var ||
        compiler_generated(v)) {
      continue;
    }
    if (!ctx.live.var_live_out(n->id, v)) {
      ctx.sink.report(n->loc, lang::Severity::kWarning, "NF202",
                      "dead store: the value assigned to '" + v +
                          "' is never read");
    }
  }
}

// NF203: a persistent variable the packet loop writes but never reads —
// not even in its own update expression — is write-only state: it can
// influence nothing (StateAlyzer would call it a logVar, but even log
// state is normally read to be incremented or reported).
void check_write_only_state(const CheckContext& ctx) {
  const ir::Cfg& cfg = ctx.m.body;
  std::map<std::string, const ir::Instr*> first_def;
  std::set<std::string> read;
  for (const auto& n : cfg.nodes) {
    for (const auto& d : n->defs()) {
      const std::string v = base_of(d);
      if (ctx.m.persistent.count(v) && !first_def.count(v)) {
        first_def.emplace(v, n.get());
      }
    }
    for (const auto& u : n->uses()) read.insert(base_of(u));
  }
  for (const auto& [v, n] : first_def) {
    if (read.count(v)) continue;
    ctx.sink.report(n->loc, lang::Severity::kWarning, "NF203",
                    "state variable '" + v +
                        "' is written during packet processing but never "
                        "read");
  }
}

// NF204: a branch arm no execution can take, for *any* configuration
// (persistents are seeded Bottom, so config-guarded arms stay live).
// A literal true/false condition is intentional (`while true`) and skipped.
void check_unreachable_arm(const CheckContext& ctx) {
  const ir::Cfg& cfg = ctx.m.body;
  for (const auto& n : cfg.nodes) {
    if (n->kind != ir::InstrKind::kBranch || n->succs.size() != 2) continue;
    if (!ctx.cp.node_executable(n->id)) continue;  // avoid cascades
    if (n->value && n->value->kind == lang::ExprKind::kBoolLit) continue;
    const ConstVal d = ctx.cp.branch_decision(n->id);
    if (d.kind != ConstVal::Kind::kBool) continue;
    ctx.sink.report(n->loc, lang::Severity::kWarning, "NF204",
                    std::string("branch condition is always ") +
                        (d.b ? "true" : "false") + "; the " +
                        (d.b ? "false" : "true") + " arm is unreachable");
  }
}

// NF205: a branch condition reads a variable StateAlyzer classified as
// logVar. By construction a logVar guard cannot influence any output
// (it would have been reclassified output-impacting), so this is legal —
// but it usually means the author *intended* state, hence a note.
void check_logvar_guard(const CheckContext& ctx) {
  const ir::Cfg& cfg = ctx.m.body;
  std::set<std::pair<int, std::string>> seen;
  for (const auto& n : cfg.nodes) {
    if (n->kind != ir::InstrKind::kBranch) continue;
    for (const auto& u : n->uses()) {
      const std::string v = base_of(u);
      if (!ctx.cats.log_vars.count(v)) continue;
      if (!seen.emplace(n->id, v).second) continue;
      ctx.sink.report(n->loc, lang::Severity::kNote, "NF205",
                      "branch guards on log variable '" + v +
                          "'; log state never influences packet output "
                          "(possibly miscategorized state)");
    }
  }
}

// NF206: two element stores to the same container with the same index
// expression and no intervening read — the first (weak) update is
// shadowed before anything can observe it.
void check_weak_update_shadow(const CheckContext& ctx) {
  const ir::Cfg& cfg = ctx.m.body;
  for (const auto& n1 : cfg.nodes) {
    if (n1->kind != ir::InstrKind::kIndexStore) continue;
    const std::string key = lang::to_source(*n1->index);
    std::set<std::string> idx_vars;
    ir::collect_var_names(*n1->index, idx_vars);
    if (idx_vars.count(n1->var)) continue;  // index reads the container

    const ir::Instr* cur = n1.get();
    while (cur->succs.size() == 1) {
      const ir::Instr& nxt = cfg.node(cur->succs[0]);
      if (nxt.preds.size() != 1) break;  // merge: another path may read
      if (nxt.kind == ir::InstrKind::kIndexStore && nxt.var == n1->var &&
          lang::to_source(*nxt.index) == key) {
        std::set<ir::Location> val_uses;
        ir::collect_uses(*nxt.value, val_uses);
        const bool reads_container = std::any_of(
            val_uses.begin(), val_uses.end(),
            [&](const ir::Location& u) { return base_of(u) == n1->var; });
        if (!reads_container) {
          ctx.sink.report(
              n1->loc, lang::Severity::kWarning, "NF206",
              "element store to '" + n1->var + "[" + key +
                  "]' is overwritten at line " + std::to_string(nxt.loc.line) +
                  " before any read (weak-update shadowing)");
        }
        break;
      }
      // Stop at anything that observes the container or perturbs the key.
      const auto nxt_uses = nxt.uses();
      const bool touches = std::any_of(
          nxt_uses.begin(), nxt_uses.end(),
          [&](const ir::Location& u) { return base_of(u) == n1->var; });
      if (touches) break;
      bool key_changed = false;
      for (const auto& d : nxt.defs()) {
        const std::string v = base_of(d);
        if (v == n1->var || idx_vars.count(v)) {
          key_changed = true;
          break;
        }
      }
      if (key_changed) break;
      cur = &nxt;
    }
  }
}

// NF207: the port operand of a send() folds to a constant outside the
// representable port range — under the *configured* constants (cp_cfg),
// since ports routinely come from config scalars.
void check_invalid_send_port(const CheckContext& ctx) {
  const ir::Cfg& cfg = ctx.m.body;
  for (const auto& n : cfg.nodes) {
    if (n->kind != ir::InstrKind::kSend || !n->aux) continue;
    if (!ctx.cp_cfg.node_executable(n->id)) continue;
    const ConstVal d = ctx.cp_cfg.eval_in(n->id, *n->aux);
    if (d.kind == ConstVal::Kind::kInt && (d.i < 0 || d.i > 65535)) {
      ctx.sink.report(n->loc, lang::Severity::kWarning, "NF207",
                      "send() to provably-invalid port " +
                          std::to_string(d.i) + " (valid range 0..65535)");
    }
  }
}

// NF208: a branch re-tests a condition an enclosing branch has already
// decided on this path — same rendered condition, and nothing the guard
// reads is redefined in between — so one arm of the second branch is
// provably unreachable. SCCP alone cannot see this (the condition is
// not a constant, it is merely *repeated*), which is why NF204 misses
// it. The walk follows one arm of the first branch through straight-line
// single-predecessor nodes, stepping through intermediate branches via
// their false edges (on either walk the tracked condition's truth value
// is preserved there), and stops at joins or at any redefinition of a
// location the guard reads.
void check_duplicate_arm(const CheckContext& ctx) {
  const ir::Cfg& cfg = ctx.m.body;
  std::set<std::pair<int, int>> reported;  // (dup node, arm) pairs
  for (const auto& n1 : cfg.nodes) {
    if (n1->kind != ir::InstrKind::kBranch || n1->succs.size() != 2) continue;
    if (!ctx.cp.node_executable(n1->id)) continue;
    if (!n1->value || n1->value->kind == lang::ExprKind::kBoolLit) continue;
    // A constant-decided branch is NF204's finding, not a duplicate.
    if (ctx.cp.branch_decision(n1->id).kind == ConstVal::Kind::kBool) continue;
    const std::string cond = lang::to_source(*n1->value);
    const std::set<ir::Location> guard_uses = n1->uses();

    for (int arm = 0; arm < 2; ++arm) {  // 0 = true edge, 1 = false edge
      int cur = n1->succs[arm];
      std::set<int> visited;
      while (visited.insert(cur).second) {
        const ir::Instr& n2 = cfg.node(cur);
        if (n2.preds.size() > 1) break;  // join: other paths reach here
        if (n2.kind == ir::InstrKind::kBranch && n2.succs.size() == 2) {
          if (n2.value && n2.value->kind != lang::ExprKind::kBoolLit &&
              lang::to_source(*n2.value) == cond) {
            if (reported.emplace(n2.id, arm).second) {
              ctx.sink.report(
                  n2.loc, lang::Severity::kWarning, "NF208",
                  "duplicate arm: condition '" + cond + "' is already " +
                      (arm == 0 ? "true" : "false") + " on this path; the " +
                      (arm == 0 ? "false" : "true") + " arm is unreachable");
            }
            break;
          }
          cur = n2.succs[1];  // traverse the else-chain
          continue;
        }
        if (n2.succs.size() != 1) break;
        bool clobbers = false;
        for (const auto& d : n2.defs()) {
          for (const auto& u : guard_uses) {
            if (analysis::locations_alias(d, u)) clobbers = true;
          }
        }
        if (clobbers) break;
        cur = n2.succs[0];
      }
    }
  }
}

// NF301: the packet loop contains no send() at all — the synthesized
// model can only ever drop, which is almost never the intended NF.
void check_vacuous_model(const CheckContext& ctx) {
  const ir::Cfg& cfg = ctx.m.body;
  for (const auto& n : cfg.nodes) {
    if (n->kind == ir::InstrKind::kSend) return;
  }
  lang::SourceLoc loc{0, 0};
  if (ctx.m.recv_port_node >= 0) loc = cfg.node(ctx.m.recv_port_node).loc;
  ctx.sink.report(loc, lang::Severity::kWarning, "NF301",
                  "NF never calls send(): the synthesized model forwards "
                  "nothing (vacuous model)");
}

}  // namespace nfactor::lint
