#include "lang/sema.h"

#include <functional>

#include "lang/builtins.h"
#include "lang/diagnostics.h"

namespace nfactor::lang {

namespace {

bool compatible(Type a, Type b) {
  return a == b || a == Type::kUnknown || b == Type::kUnknown;
}

/// Join for the monotone Unknown -> concrete lattice.
Type join(Type a, Type b, SourceLoc loc, bool checking) {
  if (a == b) return a;
  if (a == Type::kUnknown) return b;
  if (b == Type::kUnknown) return a;
  if (checking) {
    throw SemaError(loc, "type mismatch: " + to_string(a) + " vs " + to_string(b));
  }
  return a;
}

class Sema {
 public:
  explicit Sema(Program& prog) : prog_(prog) {}

  SemaInfo run() {
    collect_decls();
    check_no_recursion();
    analyze_globals();
    // Fixpoint inference, then a final pass with checking on. Types only
    // move Unknown -> concrete, so a round that changes no global, local
    // or return type saw the same types throughout, and every later
    // round would repeat it exactly: stop there (8 rounds at most).
    for (int round = 0; round < 8; ++round) {
      changed_ = false;
      analyze_funcs(/*checking=*/false);
      if (!changed_) break;
    }
    analyze_funcs(/*checking=*/true);
    return info_;
  }

 private:
  [[noreturn]] void fail(SourceLoc loc, const std::string& msg) const {
    throw SemaError(loc, msg);
  }

  void collect_decls() {
    for (const auto& g : prog_.globals) {
      if (info_.globals.count(g.name)) fail(g.loc, "duplicate global '" + g.name + "'");
      if (find_builtin(g.name)) fail(g.loc, "global '" + g.name + "' shadows a builtin");
      info_.globals[g.name] = Type::kUnknown;
    }
    for (const auto& f : prog_.funcs) {
      if (info_.funcs.count(f.name)) fail(f.loc, "duplicate function '" + f.name + "'");
      if (find_builtin(f.name)) fail(f.loc, "function '" + f.name + "' shadows a builtin");
      FuncInfo fi;
      for (const auto& p : f.params) {
        if (fi.locals.count(p)) fail(f.loc, "duplicate parameter '" + p + "'");
        fi.locals[p] = Type::kUnknown;
      }
      info_.funcs[f.name] = std::move(fi);
    }
    // Pre-scan call graph for recursion detection.
    for (const auto& f : prog_.funcs) {
      std::function<void(const Stmt&)> scan_stmt;
      std::function<void(const Expr&)> scan_expr = [&](const Expr& e) {
        if (e.kind == ExprKind::kCall) {
          const auto& c = static_cast<const Call&>(e);
          if (!find_builtin(c.callee) && info_.funcs.count(c.callee)) {
            info_.funcs[f.name].callees.insert(c.callee);
          }
          for (const auto& a : c.args) scan_expr(*a);
        } else if (e.kind == ExprKind::kUnary) {
          scan_expr(*static_cast<const Unary&>(e).operand);
        } else if (e.kind == ExprKind::kBinary) {
          const auto& b = static_cast<const Binary&>(e);
          scan_expr(*b.lhs);
          scan_expr(*b.rhs);
        } else if (e.kind == ExprKind::kIndex) {
          const auto& i = static_cast<const Index&>(e);
          scan_expr(*i.base);
          scan_expr(*i.index);
        } else if (e.kind == ExprKind::kField) {
          scan_expr(*static_cast<const FieldRef&>(e).base);
        } else if (e.kind == ExprKind::kTupleLit) {
          for (const auto& x : static_cast<const TupleLit&>(e).elems) scan_expr(*x);
        } else if (e.kind == ExprKind::kListLit) {
          for (const auto& x : static_cast<const ListLit&>(e).elems) scan_expr(*x);
        }
      };
      scan_stmt = [&](const Stmt& s) {
        switch (s.kind) {
          case StmtKind::kBlock:
            for (const auto& st : static_cast<const Block&>(s).stmts) scan_stmt(*st);
            break;
          case StmtKind::kAssign: {
            const auto& a = static_cast<const Assign&>(s);
            if (a.index) scan_expr(*a.index);
            scan_expr(*a.value);
            break;
          }
          case StmtKind::kIf: {
            const auto& i = static_cast<const If&>(s);
            scan_expr(*i.cond);
            scan_stmt(*i.then_body);
            if (i.else_body) scan_stmt(*i.else_body);
            break;
          }
          case StmtKind::kWhile: {
            const auto& w = static_cast<const While&>(s);
            scan_expr(*w.cond);
            scan_stmt(*w.body);
            break;
          }
          case StmtKind::kFor: {
            const auto& fo = static_cast<const For&>(s);
            scan_expr(*fo.begin);
            scan_expr(*fo.end);
            scan_stmt(*fo.body);
            break;
          }
          case StmtKind::kReturn: {
            const auto& r = static_cast<const Return&>(s);
            if (r.value) scan_expr(*r.value);
            break;
          }
          case StmtKind::kExprStmt:
            scan_expr(*static_cast<const ExprStmt&>(s).expr);
            break;
          default:
            break;
        }
      };
      scan_stmt(*f.body);
    }
  }

  void check_no_recursion() {
    enum class Mark { kWhite, kGrey, kBlack };
    std::map<std::string, Mark> mark;
    std::function<void(const std::string&)> dfs = [&](const std::string& fn) {
      mark[fn] = Mark::kGrey;
      for (const auto& callee : info_.funcs.at(fn).callees) {
        if (mark[callee] == Mark::kGrey) {
          fail(prog_.find_func(fn)->loc,
               "recursion detected involving '" + fn + "' and '" + callee +
                   "' (the DSL requires non-recursive functions)");
        }
        if (mark[callee] == Mark::kWhite) dfs(callee);
      }
      mark[fn] = Mark::kBlack;
    };
    for (const auto& f : prog_.funcs) {
      if (mark[f.name] == Mark::kWhite) dfs(f.name);
    }
  }

  // -- Globals ---------------------------------------------------------

  void analyze_globals() {
    for (auto& g : prog_.globals) {
      check_const_expr(*g.init);
      const Type t = infer_expr(*g.init, nullptr, /*checking=*/true);
      info_.globals[g.name] = t;
    }
  }

  void check_const_expr(const Expr& e) {
    switch (e.kind) {
      case ExprKind::kIntLit:
      case ExprKind::kBoolLit:
      case ExprKind::kStrLit:
      case ExprKind::kMapLit:
        return;
      case ExprKind::kVarRef: {
        const auto& v = static_cast<const VarRef&>(e);
        if (!info_.globals.count(v.name) ||
            info_.globals.at(v.name) == Type::kUnknown) {
          fail(e.loc, "global initializer may only reference earlier globals");
        }
        return;
      }
      case ExprKind::kUnary:
        check_const_expr(*static_cast<const Unary&>(e).operand);
        return;
      case ExprKind::kBinary: {
        const auto& b = static_cast<const Binary&>(e);
        check_const_expr(*b.lhs);
        check_const_expr(*b.rhs);
        return;
      }
      case ExprKind::kTupleLit:
        for (const auto& x : static_cast<const TupleLit&>(e).elems) check_const_expr(*x);
        return;
      case ExprKind::kListLit:
        for (const auto& x : static_cast<const ListLit&>(e).elems) check_const_expr(*x);
        return;
      default:
        fail(e.loc, "global initializer must be a constant expression");
    }
  }

  // -- Functions -------------------------------------------------------

  void analyze_funcs(bool checking) {
    for (auto& f : prog_.funcs) {
      cur_func_ = &info_.funcs[f.name];
      cur_func_name_ = f.name;
      infer_stmt(*f.body, checking);
      cur_func_ = nullptr;
    }
  }

  Type lookup_var(const std::string& name, SourceLoc loc, bool checking,
                  bool* is_global = nullptr) {
    if (cur_func_ != nullptr) {
      if (const auto it = cur_func_->locals.find(name); it != cur_func_->locals.end()) {
        if (is_global) *is_global = false;
        return it->second;
      }
    }
    if (const auto it = info_.globals.find(name); it != info_.globals.end()) {
      if (is_global) *is_global = true;
      return it->second;
    }
    if (checking) fail(loc, "use of undeclared variable '" + name + "'");
    return Type::kUnknown;
  }

  void infer_stmt(Stmt& s, bool checking) {
    switch (s.kind) {
      case StmtKind::kBlock:
        for (auto& st : static_cast<Block&>(s).stmts) infer_stmt(*st, checking);
        break;
      case StmtKind::kAssign:
        infer_assign(static_cast<Assign&>(s), checking);
        break;
      case StmtKind::kIf: {
        auto& i = static_cast<If&>(s);
        const Type t = infer_expr(*i.cond, cur_func_, checking);
        if (checking && !compatible(t, Type::kBool)) {
          fail(i.cond->loc, "if condition must be bool, got " + to_string(t));
        }
        infer_stmt(*i.then_body, checking);
        if (i.else_body) infer_stmt(*i.else_body, checking);
        break;
      }
      case StmtKind::kWhile: {
        auto& w = static_cast<While&>(s);
        const Type t = infer_expr(*w.cond, cur_func_, checking);
        if (checking && !compatible(t, Type::kBool)) {
          fail(w.cond->loc, "while condition must be bool, got " + to_string(t));
        }
        infer_stmt(*w.body, checking);
        break;
      }
      case StmtKind::kFor: {
        auto& fo = static_cast<For&>(s);
        const Type b = infer_expr(*fo.begin, cur_func_, checking);
        const Type e = infer_expr(*fo.end, cur_func_, checking);
        if (checking && (!compatible(b, Type::kInt) || !compatible(e, Type::kInt))) {
          fail(fo.loc, "for-range bounds must be int");
        }
        set_local(fo.var, Type::kInt, fo.loc, checking);
        infer_stmt(*fo.body, checking);
        break;
      }
      case StmtKind::kReturn: {
        auto& r = static_cast<Return&>(s);
        Type t = Type::kVoid;
        if (r.value) t = infer_expr(*r.value, cur_func_, checking);
        update(cur_func_->return_type, t, r.loc, checking);
        break;
      }
      case StmtKind::kExprStmt:
        infer_expr(*static_cast<ExprStmt&>(s).expr, cur_func_, checking);
        break;
      case StmtKind::kBreak:
      case StmtKind::kContinue:
        break;
    }
  }

  /// Joins `t` into a global, local or return-type slot, noting any
  /// change for run()'s fixpoint test.
  void update(Type& slot, Type t, SourceLoc loc, bool checking) {
    const Type joined = join(slot, t, loc, checking);
    if (joined != slot) {
      slot = joined;
      changed_ = true;
    }
  }

  void set_local(const std::string& name, Type t, SourceLoc loc, bool checking) {
    if (const auto it = info_.globals.find(name); it != info_.globals.end()) {
      update(it->second, t, loc, checking);
      if (cur_func_) cur_func_->globals_written.insert(name);
      return;
    }
    // Creates the local on first assignment. A new Unknown local reads
    // exactly as an undeclared name does, so only its type counts as a
    // change.
    update(cur_func_->locals[name], t, loc, checking);
  }

  void infer_assign(Assign& a, bool checking) {
    const Type value_t = infer_expr(*a.value, cur_func_, checking);
    switch (a.target) {
      case Assign::Target::kVar:
        set_local(a.var, value_t, a.loc, checking);
        break;
      case Assign::Target::kField: {
        const Type base_t = lookup_var(a.var, a.loc, checking);
        if (checking && !compatible(base_t, Type::kPacket)) {
          fail(a.loc, "field store on non-packet '" + a.var + "'");
        }
        const auto* f = find_packet_field(a.field);
        if (checking && f == nullptr) fail(a.loc, "unknown packet field '" + a.field + "'");
        if (checking && f != nullptr && !f->writable) {
          fail(a.loc, "packet field '" + a.field + "' is read-only");
        }
        if (checking && !compatible(value_t, Type::kInt)) {
          fail(a.loc, "packet fields hold ints, got " + to_string(value_t));
        }
        note_global_use(a.var);
        break;
      }
      case Assign::Target::kIndex: {
        bool is_global = false;
        const Type base_t = lookup_var(a.var, a.loc, checking, &is_global);
        if (checking && !compatible(base_t, Type::kMap) &&
            !compatible(base_t, Type::kList)) {
          fail(a.loc, "element store on non-container '" + a.var + "'");
        }
        infer_expr(*a.index, cur_func_, checking);
        if (is_global && cur_func_) cur_func_->globals_written.insert(a.var);
        break;
      }
    }
  }

  void note_global_use(const std::string& name) {
    if (cur_func_ && info_.globals.count(name)) {
      cur_func_->globals_read.insert(name);
    }
  }

  Type infer_expr(Expr& e, FuncInfo* /*scope*/, bool checking) {
    const Type t = infer_expr_impl(e, checking);
    e.type = t;
    return t;
  }

  Type infer_expr_impl(Expr& e, bool checking) {
    switch (e.kind) {
      case ExprKind::kIntLit: return Type::kInt;
      case ExprKind::kBoolLit: return Type::kBool;
      case ExprKind::kStrLit: return Type::kStr;
      case ExprKind::kMapLit: return Type::kMap;
      case ExprKind::kVarRef: {
        auto& v = static_cast<VarRef&>(e);
        note_global_use(v.name);
        return lookup_var(v.name, v.loc, checking);
      }
      case ExprKind::kUnary: {
        auto& u = static_cast<Unary&>(e);
        const Type t = infer_expr(*u.operand, cur_func_, checking);
        if (u.op == UnOp::kNeg) {
          if (checking && !compatible(t, Type::kInt)) fail(u.loc, "'-' needs int");
          return Type::kInt;
        }
        if (checking && !compatible(t, Type::kBool)) fail(u.loc, "'!' needs bool");
        return Type::kBool;
      }
      case ExprKind::kBinary: {
        auto& b = static_cast<Binary&>(e);
        const Type lt = infer_expr(*b.lhs, cur_func_, checking);
        const Type rt = infer_expr(*b.rhs, cur_func_, checking);
        switch (b.op) {
          case BinOp::kAdd: case BinOp::kSub: case BinOp::kMul:
          case BinOp::kDiv: case BinOp::kMod: case BinOp::kBitAnd:
          case BinOp::kBitOr: case BinOp::kBitXor: case BinOp::kShl:
          case BinOp::kShr:
            if (checking && (!compatible(lt, Type::kInt) || !compatible(rt, Type::kInt))) {
              fail(b.loc, "arithmetic needs int operands");
            }
            return Type::kInt;
          case BinOp::kEq: case BinOp::kNe:
            if (checking && !compatible(lt, rt)) {
              fail(b.loc, "'==' operands must have matching types (" +
                              to_string(lt) + " vs " + to_string(rt) + ")");
            }
            return Type::kBool;
          case BinOp::kLt: case BinOp::kLe: case BinOp::kGt: case BinOp::kGe:
            if (checking && (!compatible(lt, Type::kInt) || !compatible(rt, Type::kInt))) {
              fail(b.loc, "ordering comparison needs int operands");
            }
            return Type::kBool;
          case BinOp::kAnd: case BinOp::kOr:
            if (checking && (!compatible(lt, Type::kBool) || !compatible(rt, Type::kBool))) {
              fail(b.loc, "logical operator needs bool operands");
            }
            return Type::kBool;
          case BinOp::kIn:
            if (checking && !compatible(rt, Type::kMap) && !compatible(rt, Type::kList)) {
              fail(b.loc, "'in' needs a map or list on the right");
            }
            return Type::kBool;
        }
        return Type::kUnknown;
      }
      case ExprKind::kCall: return infer_call(static_cast<Call&>(e), checking);
      case ExprKind::kTupleLit: {
        auto& t = static_cast<TupleLit&>(e);
        for (auto& x : t.elems) {
          const Type xt = infer_expr(*x, cur_func_, checking);
          if (checking && !compatible(xt, Type::kInt)) {
            fail(x->loc, "tuple elements must be ints");
          }
        }
        return Type::kTuple;
      }
      case ExprKind::kListLit: {
        auto& l = static_cast<ListLit&>(e);
        for (auto& x : l.elems) infer_expr(*x, cur_func_, checking);
        return Type::kList;
      }
      case ExprKind::kIndex: {
        auto& i = static_cast<Index&>(e);
        const Type bt = infer_expr(*i.base, cur_func_, checking);
        const Type it = infer_expr(*i.index, cur_func_, checking);
        if (bt == Type::kTuple) {
          if (checking && !compatible(it, Type::kInt)) fail(i.loc, "tuple index must be int");
          return Type::kInt;
        }
        if (bt == Type::kList) {
          if (checking && !compatible(it, Type::kInt)) fail(i.loc, "list index must be int");
          return Type::kUnknown;  // element type tracked dynamically
        }
        if (bt == Type::kMap || bt == Type::kUnknown) return Type::kUnknown;
        if (checking) fail(i.loc, "indexing non-container of type " + to_string(bt));
        return Type::kUnknown;
      }
      case ExprKind::kField: {
        auto& f = static_cast<FieldRef&>(e);
        const Type bt = infer_expr(*f.base, cur_func_, checking);
        if (checking && !compatible(bt, Type::kPacket)) {
          fail(f.loc, "field access on non-packet value");
        }
        if (checking && find_packet_field(f.field) == nullptr) {
          fail(f.loc, "unknown packet field '" + f.field + "'");
        }
        return Type::kInt;
      }
    }
    return Type::kUnknown;
  }

  Type infer_call(Call& c, bool checking) {
    if (const auto* b = find_builtin(c.callee)) {
      if (checking) {
        const bool arity_ok = b->variadic ? c.args.size() >= 1
                                          : c.args.size() == b->params.size();
        if (!arity_ok) {
          fail(c.loc, "builtin '" + c.callee + "' expects " +
                          std::to_string(b->params.size()) + " argument(s)");
        }
      }
      // Callback registration: the function-name argument resolves against
      // the function table, not the variable scope.
      if (b->role == BuiltinRole::kControl) {
        for (std::size_t i = 0; i < c.args.size(); ++i) {
          Expr& arg = *c.args[i];
          if (arg.kind == ExprKind::kVarRef) {
            const auto& name = static_cast<const VarRef&>(arg).name;
            if (info_.funcs.count(name)) {
              arg.type = Type::kVoid;
              // Callbacks receive a packet parameter.
              auto& callee = info_.funcs[name];
              if (!prog_.find_func(name)->params.empty()) {
                update(callee.locals[prog_.find_func(name)->params[0]],
                       Type::kPacket, arg.loc, checking);
              }
              continue;
            }
          }
          infer_expr(arg, cur_func_, checking);
        }
        return b->ret;
      }
      for (std::size_t i = 0; i < c.args.size(); ++i) {
        const Type at = infer_expr(*c.args[i], cur_func_, checking);
        if (checking && i < b->params.size() &&
            !compatible(at, b->params[i])) {
          fail(c.args[i]->loc, "argument " + std::to_string(i + 1) + " of '" +
                                   c.callee + "' must be " +
                                   to_string(b->params[i]) + ", got " +
                                   to_string(at));
        }
      }
      return b->ret;
    }

    // User function.
    FuncDef* callee = prog_.find_func(c.callee);
    if (callee == nullptr) {
      if (checking) fail(c.loc, "call to unknown function '" + c.callee + "'");
      for (auto& a : c.args) infer_expr(*a, cur_func_, checking);
      return Type::kUnknown;
    }
    if (checking && c.args.size() != callee->params.size()) {
      fail(c.loc, "function '" + c.callee + "' expects " +
                      std::to_string(callee->params.size()) + " argument(s)");
    }
    FuncInfo& ci = info_.funcs[c.callee];
    for (std::size_t i = 0; i < c.args.size(); ++i) {
      const Type at = infer_expr(*c.args[i], cur_func_, checking);
      if (i < callee->params.size()) {
        update(ci.locals[callee->params[i]], at, c.args[i]->loc, checking);
      }
    }
    return ci.return_type;
  }

  Program& prog_;
  SemaInfo info_;
  FuncInfo* cur_func_ = nullptr;
  std::string cur_func_name_;
  bool changed_ = false;  ///< a type slot changed in the current round
};

}  // namespace

SemaInfo analyze(Program& prog) { return Sema(prog).run(); }

}  // namespace nfactor::lang
