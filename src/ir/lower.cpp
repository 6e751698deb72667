#include "ir/lower.h"

#include <functional>

#include "lang/builtins.h"
#include "lang/lexer.h"
#include "lang/sema.h"

namespace nfactor::ir {

namespace {

using lang::Assign;
using lang::Block;
using lang::Call;
using lang::Expr;
using lang::ExprKind;
using lang::ExprPtr;
using lang::SourceLoc;
using lang::Stmt;
using lang::StmtKind;

/// A pending edge: nodes_[node].succs[slot] will be patched later.
struct Patch {
  int node;
  std::size_t slot;
};

struct LoopCtx {
  int continue_target = -1;             // used when continues == nullptr
  std::vector<Patch>* continues = nullptr;  // for-loops: jump to increment
  std::vector<Patch>* breaks = nullptr;
};

/// Per-inline-instance context: local-variable renaming plus where
/// `return` goes.
struct InlineCtx {
  std::map<std::string, std::string> rename;
  std::string ret_var;            // "" for the outermost (packet body) level
  std::vector<Patch>* returns;    // return jumps collect here
};

class Builder {
 public:
  explicit Builder(const lang::Program& prog, const lang::SemaInfo& sema)
      : prog_(prog), sema_(sema) {}

  Cfg take_cfg() { return std::move(cfg_); }

  void begin() {
    cfg_ = Cfg{};
    auto entry = std::make_unique<Instr>();
    entry->kind = InstrKind::kEntry;
    entry->id = 0;
    entry->succs.assign(1, -1);  // fall-through slot patched by first emit
    cfg_.nodes.push_back(std::move(entry));
    cfg_.entry = 0;
    frontier_ = {pending_slot(0)};
  }

  /// Seal the CFG: create the exit node, patch the frontier and any
  /// outstanding return patches to it.
  void finish(std::vector<Patch>* returns) {
    const int exit_id = new_node(InstrKind::kExit, {});
    if (returns != nullptr) {
      for (const Patch& p : *returns) set_succ(p, exit_id);
    }
    cfg_.exit = exit_id;
  }

  void lower_stmts(const Block& b, InlineCtx& ictx) {
    for (const auto& s : b.stmts) lower_stmt(*s, ictx);
  }

  void lower_stmt(const Stmt& s, InlineCtx& ictx) {
    if (frontier_.empty()) return;  // unreachable code after return/break
    switch (s.kind) {
      case StmtKind::kBlock:
        lower_stmts(static_cast<const Block&>(s), ictx);
        return;
      case StmtKind::kAssign:
        lower_assign(static_cast<const Assign&>(s), ictx);
        return;
      case StmtKind::kIf: {
        const auto& i = static_cast<const lang::If&>(s);
        const ExprPtr cond = lower_expr(*i.cond, ictx);
        const int b = emit_branch(cond->clone(), i.loc);
        std::vector<Patch> joins;

        frontier_ = {Patch{b, 0}};
        lower_stmt(*i.then_body, ictx);
        joins.insert(joins.end(), frontier_.begin(), frontier_.end());

        frontier_ = {Patch{b, 1}};
        if (i.else_body) lower_stmt(*i.else_body, ictx);
        joins.insert(joins.end(), frontier_.begin(), frontier_.end());

        frontier_ = std::move(joins);
        return;
      }
      case StmtKind::kWhile: {
        const auto& w = static_cast<const lang::While&>(s);
        lower_loop(*w.cond, nullptr, nullptr, *w.body, w.loc, ictx);
        return;
      }
      case StmtKind::kFor: {
        const auto& f = static_cast<const lang::For&>(s);
        // i = begin; while (i < end) { body; i = i + 1; }
        const std::string iv = renamed(f.var, ictx);
        emit_assign(iv, lower_expr(*f.begin, ictx), f.loc);
        auto cond = std::make_unique<lang::Binary>(
            lang::BinOp::kLt, std::make_unique<lang::VarRef>(iv, f.loc),
            lower_expr(*f.end, ictx), f.loc);
        auto incr = std::make_unique<lang::Binary>(
            lang::BinOp::kAdd, std::make_unique<lang::VarRef>(iv, f.loc),
            std::make_unique<lang::IntLit>(1, f.loc), f.loc);
        lower_loop(*cond, &iv, incr.get(), *f.body, f.loc, ictx);
        return;
      }
      case StmtKind::kReturn: {
        const auto& r = static_cast<const lang::Return&>(s);
        if (r.value && !ictx.ret_var.empty()) {
          emit_assign(ictx.ret_var, lower_expr(*r.value, ictx), r.loc);
        } else if (r.value) {
          // value discarded at the outermost level, but still evaluate for
          // effects
          lower_expr(*r.value, ictx);
        }
        for (const Patch& p : frontier_) ictx.returns->push_back(p);
        frontier_.clear();
        return;
      }
      case StmtKind::kBreak:
        require(!loops_.empty(), s.loc, "'break' outside loop");
        for (const Patch& p : frontier_) loops_.back().breaks->push_back(p);
        frontier_.clear();
        return;
      case StmtKind::kContinue: {
        require(!loops_.empty(), s.loc, "'continue' outside loop");
        LoopCtx& lc = loops_.back();
        for (const Patch& p : frontier_) {
          if (lc.continues != nullptr) {
            lc.continues->push_back(p);
          } else {
            set_succ(p, lc.continue_target);
          }
        }
        frontier_.clear();
        return;
      }
      case StmtKind::kExprStmt: {
        const auto& e = static_cast<const lang::ExprStmt&>(s);
        lower_expr_stmt(*e.expr, ictx);
        return;
      }
    }
  }

  /// Lower the canonical packet loop body (statements of the while(true)
  /// block). The first statement must be `pkt = recv(port)`.
  void lower_packet_body(const Block& body, InlineCtx& ictx, Module& m) {
    require(!body.stmts.empty(), body.loc, "empty packet loop");
    const Stmt& first = *body.stmts.front();
    require(first.kind == StmtKind::kAssign, first.loc,
            "packet loop must start with 'pkt = recv(port)'");
    const auto& a = static_cast<const Assign&>(first);
    require(a.target == Assign::Target::kVar &&
                a.value->kind == ExprKind::kCall &&
                static_cast<const Call&>(*a.value).callee == "recv",
            first.loc, "packet loop must start with 'pkt = recv(port)'");
    const auto& recv_call = static_cast<const Call&>(*a.value);

    auto n = std::make_unique<Instr>();
    n->kind = InstrKind::kRecv;
    n->loc = first.loc;
    n->var = renamed(a.var, ictx);
    n->aux = recv_call.args.empty() ? nullptr
                                    : lower_expr(*recv_call.args[0], ictx);
    m.pkt_var = n->var;
    m.recv_port_node = emit(std::move(n));

    for (std::size_t i = 1; i < body.stmts.size(); ++i) {
      lower_stmt(*body.stmts[i], ictx);
    }
  }

 private:
  [[noreturn]] void fail(SourceLoc loc, const std::string& msg) const {
    throw LowerError(loc, msg);
  }

  void require(bool ok, SourceLoc loc, const std::string& msg) const {
    if (!ok) fail(loc, msg);
  }

  static Patch pending_slot(int node_id) { return Patch{node_id, 0}; }

  int new_node(InstrKind k, SourceLoc loc) {
    auto n = std::make_unique<Instr>();
    n->kind = k;
    n->loc = loc;
    return emit(std::move(n));
  }

  /// Append a node, patch the frontier into it, and make its fall-through
  /// edge the new frontier (except for branches, handled by callers).
  int emit(std::unique_ptr<Instr> n) {
    n->id = static_cast<int>(cfg_.nodes.size());
    const int id = n->id;
    const bool is_branch = n->kind == InstrKind::kBranch;
    n->succs.assign(is_branch ? 2 : 1, -1);
    if (n->kind == InstrKind::kExit) n->succs.clear();
    cfg_.nodes.push_back(std::move(n));
    for (const Patch& p : frontier_) set_succ(p, id);
    frontier_.clear();
    if (!is_branch && cfg_.nodes.back()->kind != InstrKind::kExit) {
      frontier_ = {Patch{id, 0}};
    }
    return id;
  }

  void set_succ(const Patch& p, int target) {
    Instr& n = cfg_.node(p.node);
    n.succs[p.slot] = target;
    cfg_.node(target).preds.push_back(p.node);
  }

  int emit_branch(ExprPtr cond, SourceLoc loc) {
    auto n = std::make_unique<Instr>();
    n->kind = InstrKind::kBranch;
    n->loc = loc;
    n->value = std::move(cond);
    return emit(std::move(n));
  }

  void emit_assign(const std::string& var, ExprPtr value, SourceLoc loc) {
    auto n = std::make_unique<Instr>();
    n->kind = InstrKind::kAssign;
    n->loc = loc;
    n->var = var;
    n->value = std::move(value);
    emit(std::move(n));
  }

  void lower_loop(const Expr& cond, const std::string* for_var,
                  const Expr* for_incr, const Stmt& body, SourceLoc loc,
                  InlineCtx& ictx) {
    // The condition may itself emit instructions (inlined calls); the back
    // edge must re-enter at the first of them.
    const int cond_start_hint = static_cast<int>(cfg_.nodes.size());
    const ExprPtr c = lower_expr(cond, ictx);
    const int b = emit_branch(c->clone(), loc);
    const int loop_head = cond_start_hint < b ? cond_start_hint : b;

    std::vector<Patch> breaks;

    // For-loops continue at the increment, while-loops at the condition.
    frontier_ = {Patch{b, 0}};
    if (for_var != nullptr) {
      std::vector<Patch> continues;
      loops_.push_back({-1, &continues, &breaks});
      lower_stmt(body, ictx);
      loops_.pop_back();

      frontier_.insert(frontier_.end(), continues.begin(), continues.end());
      if (!frontier_.empty()) {
        auto n = std::make_unique<Instr>();
        n->kind = InstrKind::kAssign;
        n->loc = loc;
        n->var = *for_var;
        n->value = for_incr->clone();
        emit(std::move(n));
        for (const Patch& p : frontier_) set_succ(p, loop_head);
        frontier_.clear();
      }
    } else {
      loops_.push_back({loop_head, nullptr, &breaks});
      lower_stmt(body, ictx);
      loops_.pop_back();
      for (const Patch& p : frontier_) set_succ(p, loop_head);
      frontier_.clear();
    }

    frontier_ = {Patch{b, 1}};
    frontier_.insert(frontier_.end(), breaks.begin(), breaks.end());
  }

  std::string renamed(const std::string& name, const InlineCtx& ictx) const {
    const auto it = ictx.rename.find(name);
    return it == ictx.rename.end() ? name : it->second;
  }

  /// Rewrite an expression: rename locals, inline user calls (emitting
  /// their bodies), reject socket/control builtins, and lift effectful
  /// builtins used in expression position.
  ExprPtr lower_expr(const Expr& e, InlineCtx& ictx) {
    switch (e.kind) {
      case ExprKind::kIntLit:
      case ExprKind::kBoolLit:
      case ExprKind::kStrLit:
      case ExprKind::kMapLit:
        return e.clone();
      case ExprKind::kVarRef: {
        const auto& v = static_cast<const lang::VarRef&>(e);
        auto out = std::make_unique<lang::VarRef>(renamed(v.name, ictx), v.loc);
        out->type = e.type;
        return out;
      }
      case ExprKind::kUnary: {
        const auto& u = static_cast<const lang::Unary&>(e);
        auto out = std::make_unique<lang::Unary>(
            u.op, lower_expr(*u.operand, ictx), u.loc);
        out->type = e.type;
        return out;
      }
      case ExprKind::kBinary: {
        const auto& b = static_cast<const lang::Binary&>(e);
        auto lhs = lower_expr(*b.lhs, ictx);
        auto rhs = lower_expr(*b.rhs, ictx);
        auto out = std::make_unique<lang::Binary>(b.op, std::move(lhs),
                                                  std::move(rhs), b.loc);
        out->type = e.type;
        return out;
      }
      case ExprKind::kTupleLit: {
        const auto& t = static_cast<const lang::TupleLit&>(e);
        std::vector<ExprPtr> elems;
        elems.reserve(t.elems.size());
        for (const auto& x : t.elems) elems.push_back(lower_expr(*x, ictx));
        auto out = std::make_unique<lang::TupleLit>(std::move(elems), t.loc);
        out->type = e.type;
        return out;
      }
      case ExprKind::kListLit: {
        const auto& l = static_cast<const lang::ListLit&>(e);
        std::vector<ExprPtr> elems;
        elems.reserve(l.elems.size());
        for (const auto& x : l.elems) elems.push_back(lower_expr(*x, ictx));
        auto out = std::make_unique<lang::ListLit>(std::move(elems), l.loc);
        out->type = e.type;
        return out;
      }
      case ExprKind::kIndex: {
        const auto& i = static_cast<const lang::Index&>(e);
        auto out = std::make_unique<lang::Index>(lower_expr(*i.base, ictx),
                                                 lower_expr(*i.index, ictx),
                                                 i.loc);
        out->type = e.type;
        return out;
      }
      case ExprKind::kField: {
        const auto& f = static_cast<const lang::FieldRef&>(e);
        auto out = std::make_unique<lang::FieldRef>(lower_expr(*f.base, ictx),
                                                    f.field, f.loc);
        out->type = e.type;
        return out;
      }
      case ExprKind::kCall:
        return lower_call(static_cast<const Call&>(e), ictx);
    }
    fail(e.loc, "unhandled expression kind");
  }

  ExprPtr lower_call(const Call& c, InlineCtx& ictx) {
    if (const auto* b = lang::find_builtin(c.callee)) {
      switch (b->role) {
        case lang::BuiltinRole::kSocket:
          fail(c.loc, "socket builtin '" + c.callee +
                          "' must be unfolded before lowering (§3.2); run "
                          "transform::unfold_sockets");
        case lang::BuiltinRole::kControl:
          fail(c.loc, "control builtin '" + c.callee +
                          "' must be normalized before lowering; run "
                          "transform::normalize");
        case lang::BuiltinRole::kPktInput:
          fail(c.loc, "recv() is only allowed at the packet loop head");
        case lang::BuiltinRole::kEffect: {
          // pop(q) in expression position: lift to a kCall with a temp.
          const std::string tmp = fresh_temp();
          auto n = std::make_unique<Instr>();
          n->kind = InstrKind::kCall;
          n->loc = c.loc;
          n->var = tmp;
          n->callee = c.callee;
          for (const auto& a : c.args) n->args.push_back(lower_expr(*a, ictx));
          emit(std::move(n));
          return std::make_unique<lang::VarRef>(tmp, c.loc);
        }
        default: {
          std::vector<ExprPtr> args;
          args.reserve(c.args.size());
          for (const auto& a : c.args) args.push_back(lower_expr(*a, ictx));
          auto out = std::make_unique<Call>(c.callee, std::move(args), c.loc);
          out->type = c.type;
          return out;
        }
      }
    }

    // User call: inline.
    const lang::FuncDef* callee = prog_.find_func(c.callee);
    require(callee != nullptr, c.loc, "unknown function '" + c.callee + "'");
    const int instance = ++inline_counter_;

    InlineCtx sub;
    const std::string prefix = c.callee + "$" + std::to_string(instance) + "$";
    for (const auto& [local, ty] : sema_.funcs.at(c.callee).locals) {
      (void)ty;
      sub.rename[local] = prefix + local;
    }
    for (std::size_t i = 0; i < callee->params.size(); ++i) {
      ExprPtr arg = i < c.args.size() ? lower_expr(*c.args[i], ictx)
                                      : ExprPtr(std::make_unique<lang::IntLit>(0, c.loc));
      emit_assign(sub.rename.at(callee->params[i]), std::move(arg), c.loc);
    }
    sub.ret_var = prefix + "$ret";
    std::vector<Patch> returns;
    sub.returns = &returns;

    lower_stmts(*callee->body, sub);

    // Join: fall-through and returns converge on the continuation.
    frontier_.insert(frontier_.end(), returns.begin(), returns.end());
    return std::make_unique<lang::VarRef>(sub.ret_var, c.loc);
  }

  void lower_expr_stmt(const Expr& e, InlineCtx& ictx) {
    if (e.kind == ExprKind::kCall) {
      const auto& c = static_cast<const Call&>(e);
      if (const auto* b = lang::find_builtin(c.callee)) {
        if (b->role == lang::BuiltinRole::kPktOutput) {
          require(c.args.size() == 2, c.loc, "send(pkt, port) expects 2 args");
          auto n = std::make_unique<Instr>();
          n->kind = InstrKind::kSend;
          n->loc = c.loc;
          n->value = lower_expr(*c.args[0], ictx);
          n->aux = lower_expr(*c.args[1], ictx);
          emit(std::move(n));
          return;
        }
        if (b->role == lang::BuiltinRole::kLog ||
            b->role == lang::BuiltinRole::kEffect) {
          auto n = std::make_unique<Instr>();
          n->kind = InstrKind::kCall;
          n->loc = c.loc;
          n->callee = c.callee;
          for (const auto& a : c.args) n->args.push_back(lower_expr(*a, ictx));
          emit(std::move(n));
          return;
        }
      }
    }
    // Generic expression statement: evaluate for effects (inlines user
    // calls); a pure residue is dropped.
    lower_expr(e, ictx);
  }

  void lower_assign(const Assign& a, InlineCtx& ictx) {
    switch (a.target) {
      case Assign::Target::kVar: {
        // `x = pop(q)` gets a dedicated kCall node with result var.
        if (a.value->kind == ExprKind::kCall) {
          const auto& c = static_cast<const Call&>(*a.value);
          const auto* b = lang::find_builtin(c.callee);
          if (b != nullptr && b->role == lang::BuiltinRole::kEffect) {
            auto n = std::make_unique<Instr>();
            n->kind = InstrKind::kCall;
            n->loc = a.loc;
            n->var = renamed(a.var, ictx);
            n->callee = c.callee;
            for (const auto& arg : c.args) {
              n->args.push_back(lower_expr(*arg, ictx));
            }
            emit(std::move(n));
            return;
          }
        }
        ExprPtr v = lower_expr(*a.value, ictx);
        auto n = std::make_unique<Instr>();
        n->kind = InstrKind::kAssign;
        n->loc = a.loc;
        n->var = renamed(a.var, ictx);
        n->value = std::move(v);
        emit(std::move(n));
        return;
      }
      case Assign::Target::kField: {
        auto n = std::make_unique<Instr>();
        n->kind = InstrKind::kFieldStore;
        n->loc = a.loc;
        n->var = renamed(a.var, ictx);
        n->field = a.field;
        n->value = lower_expr(*a.value, ictx);
        emit(std::move(n));
        return;
      }
      case Assign::Target::kIndex: {
        auto n = std::make_unique<Instr>();
        n->kind = InstrKind::kIndexStore;
        n->loc = a.loc;
        n->var = renamed(a.var, ictx);
        n->index = lower_expr(*a.index, ictx);
        n->value = lower_expr(*a.value, ictx);
        emit(std::move(n));
        return;
      }
    }
  }

  std::string fresh_temp() {
    return std::string(lang::kTempPrefix) + std::to_string(++temp_counter_);
  }

  const lang::Program& prog_;
  const lang::SemaInfo& sema_;
  Cfg cfg_;
  std::vector<Patch> frontier_;
  std::vector<LoopCtx> loops_;
  int temp_counter_ = 0;
  int inline_counter_ = 0;
};

bool is_while_true(const Stmt& s) {
  if (s.kind != StmtKind::kWhile) return false;
  const auto& w = static_cast<const lang::While&>(s);
  return w.cond->kind == ExprKind::kBoolLit &&
         static_cast<const lang::BoolLit&>(*w.cond).value;
}

}  // namespace

Module lower(lang::Program prog) {
  Module m;
  m.name = prog.unit_name;
  m.sema = lang::analyze(prog);

  const lang::FuncDef* main_fn = prog.find_func("main");
  if (main_fn == nullptr) {
    throw LowerError({0, 0}, "program has no main() function");
  }

  // Split main's body into init statements and the packet loop.
  const lang::While* loop = nullptr;
  std::vector<const Stmt*> init_stmts;
  for (const auto& s : main_fn->body->stmts) {
    if (is_while_true(*s)) {
      if (loop != nullptr) {
        throw LowerError(s->loc, "multiple packet loops in main()");
      }
      loop = static_cast<const lang::While*>(s.get());
      continue;
    }
    if (loop != nullptr) {
      throw LowerError(s->loc, "statements after the packet loop are unreachable");
    }
    init_stmts.push_back(s.get());
  }
  if (loop == nullptr) {
    throw LowerError(main_fn->loc,
                     "main() has no 'while (true)' packet loop; run "
                     "transform::normalize on callback/consumer-producer/"
                     "nested-loop structured programs first");
  }

  // Globals.
  for (const auto& g : prog.globals) {
    m.globals.push_back({g.name, g.init->clone(), m.sema.globals.at(g.name)});
    m.persistent.insert(g.name);
  }

  // Init CFG. main's locals keep their unqualified names here so the body
  // can reference them; anything defined pre-loop is persistent.
  {
    Builder b(prog, m.sema);
    b.begin();
    InlineCtx ictx;
    std::vector<Patch> returns;
    ictx.returns = &returns;
    for (const Stmt* s : init_stmts) b.lower_stmt(*s, ictx);
    b.finish(&returns);
    m.init = b.take_cfg();
    for (const auto& n : m.init.nodes) {
      for (const auto& d : n->defs()) {
        std::string base;
        if (!split_field_loc(d, &base, nullptr)) m.persistent.insert(d);
      }
    }
  }

  // Per-packet body CFG.
  {
    Builder b(prog, m.sema);
    b.begin();
    InlineCtx ictx;
    std::vector<Patch> returns;
    ictx.returns = &returns;
    b.lower_packet_body(static_cast<const Block&>(*loop->body), ictx, m);
    b.finish(&returns);
    m.body = b.take_cfg();
  }

  return m;
}

}  // namespace nfactor::ir
