#include "lang/parser.h"

#include <algorithm>
#include <optional>
#include <string>

#include "lang/diagnostics.h"
#include "lang/lexer.h"

namespace nfactor::lang {

namespace {

/// Binding powers for precedence climbing; higher binds tighter.
int precedence(Tok t) {
  switch (t) {
    case Tok::kOrOr: return 1;
    case Tok::kAndAnd: return 2;
    case Tok::kIn: return 3;
    case Tok::kEq: case Tok::kNe: return 4;
    case Tok::kLt: case Tok::kLe: case Tok::kGt: case Tok::kGe: return 5;
    case Tok::kPipe: return 6;
    case Tok::kCaret: return 7;
    case Tok::kAmp: return 8;
    case Tok::kShl: case Tok::kShr: return 9;
    case Tok::kPlus: case Tok::kMinus: return 10;
    case Tok::kStar: case Tok::kSlash: case Tok::kPercent: return 11;
    default: return -1;
  }
}

BinOp to_binop(Tok t) {
  switch (t) {
    case Tok::kOrOr: return BinOp::kOr;
    case Tok::kAndAnd: return BinOp::kAnd;
    case Tok::kIn: return BinOp::kIn;
    case Tok::kEq: return BinOp::kEq;
    case Tok::kNe: return BinOp::kNe;
    case Tok::kLt: return BinOp::kLt;
    case Tok::kLe: return BinOp::kLe;
    case Tok::kGt: return BinOp::kGt;
    case Tok::kGe: return BinOp::kGe;
    case Tok::kPipe: return BinOp::kBitOr;
    case Tok::kCaret: return BinOp::kBitXor;
    case Tok::kAmp: return BinOp::kBitAnd;
    case Tok::kShl: return BinOp::kShl;
    case Tok::kShr: return BinOp::kShr;
    case Tok::kPlus: return BinOp::kAdd;
    case Tok::kMinus: return BinOp::kSub;
    case Tok::kStar: return BinOp::kMul;
    case Tok::kSlash: return BinOp::kDiv;
    case Tok::kPercent: return BinOp::kMod;
    default: throw std::logic_error("not a binary operator token");
  }
}

class Parser {
 public:
  Parser(std::vector<Token> toks, std::string unit)
      : toks_(std::move(toks)), unit_(std::move(unit)) {}

  Program run() {
    Program p;
    p.unit_name = unit_;
    while (!at(Tok::kEof)) {
      if (at(Tok::kVar)) {
        p.globals.push_back(global());
      } else if (at(Tok::kDef)) {
        p.funcs.push_back(func());
      } else {
        fail("expected 'var' or 'def' at top level");
      }
    }
    return p;
  }

 private:
  const Token& cur() const { return toks_[pos_]; }
  const Token& peek(std::size_t ahead = 1) const {
    const std::size_t i = pos_ + ahead;
    return i < toks_.size() ? toks_[i] : toks_.back();
  }
  bool at(Tok t) const { return cur().kind == t; }

  Token advance() { return toks_[pos_++]; }

  Token expect(Tok t, const char* what) {
    if (!at(t)) {
      fail(std::string("expected ") + what + ", found " +
           token_name(cur().kind));
    }
    return advance();
  }

  bool accept(Tok t) {
    if (at(t)) {
      ++pos_;
      return true;
    }
    return false;
  }

  [[noreturn]] void fail(const std::string& msg) const {
    throw ParseError(cur().loc, msg);
  }

  GlobalVar global() {
    const SourceLoc loc = expect(Tok::kVar, "'var'").loc;
    std::string name = expect(Tok::kIdent, "identifier").text;
    expect(Tok::kAssign, "'='");
    ExprPtr init = expression();
    expect(Tok::kSemi, "';'");
    return {std::move(name), std::move(init), loc};
  }

  FuncDef func() {
    FuncDef f;
    f.loc = expect(Tok::kDef, "'def'").loc;
    f.name = expect(Tok::kIdent, "function name").text;
    expect(Tok::kLParen, "'('");
    if (!at(Tok::kRParen)) {
      do {
        f.params.push_back(expect(Tok::kIdent, "parameter name").text);
      } while (accept(Tok::kComma));
    }
    expect(Tok::kRParen, "')'");
    f.body = block();
    return f;
  }

  std::unique_ptr<Block> block() {
    auto b = std::make_unique<Block>(cur().loc);
    expect(Tok::kLBrace, "'{'");
    while (!at(Tok::kRBrace)) {
      if (at(Tok::kEof)) fail("unterminated block");
      b->stmts.push_back(statement());
    }
    expect(Tok::kRBrace, "'}'");
    return b;
  }

  StmtPtr statement() {
    switch (cur().kind) {
      case Tok::kIf: return if_stmt();
      case Tok::kWhile: return while_stmt();
      case Tok::kFor: return for_stmt();
      case Tok::kReturn: {
        auto s = std::make_unique<Return>(advance().loc);
        if (!at(Tok::kSemi)) s->value = expression();
        expect(Tok::kSemi, "';'");
        return s;
      }
      case Tok::kBreak: {
        auto s = std::make_unique<Break>(advance().loc);
        expect(Tok::kSemi, "';'");
        return s;
      }
      case Tok::kContinue: {
        auto s = std::make_unique<Continue>(advance().loc);
        expect(Tok::kSemi, "';'");
        return s;
      }
      default:
        return simple_stmt();
    }
  }

  // Statement depth: the number of if/while/for statements enclosing
  // the one being parsed. An `else if` nests its `if` inside the outer
  // one, so a chain of N arms is N levels deep. Later stages recurse on
  // statement nesting as this parser does, so it is capped like
  // expressions are; the cap is looser because long `else if` chains
  // are a real NF shape.
  static constexpr int kMaxStmtDepth = 1024;

  /// Counts one compound-statement level for its lifetime.
  class StmtLevel {
   public:
    StmtLevel(Parser& p, SourceLoc loc) : p_(p) {
      if (++p_.stmt_depth_ > kMaxStmtDepth) {
        throw DepthError(loc,
                         "statement nested deeper than " +
                             std::to_string(kMaxStmtDepth) + " levels",
                         "NF106");
      }
    }
    StmtLevel(const StmtLevel&) = delete;
    StmtLevel& operator=(const StmtLevel&) = delete;
    ~StmtLevel() { --p_.stmt_depth_; }

   private:
    Parser& p_;
  };

  StmtPtr if_stmt() {
    auto s = std::make_unique<If>(expect(Tok::kIf, "'if'").loc);
    const StmtLevel level(*this, s->loc);
    expect(Tok::kLParen, "'('");
    s->cond = expression();
    expect(Tok::kRParen, "')'");
    s->then_body = block();
    if (accept(Tok::kElse)) {
      if (at(Tok::kIf)) {
        s->else_body = if_stmt();
      } else {
        s->else_body = block();
      }
    }
    return s;
  }

  StmtPtr while_stmt() {
    auto s = std::make_unique<While>(expect(Tok::kWhile, "'while'").loc);
    const StmtLevel level(*this, s->loc);
    expect(Tok::kLParen, "'('");
    s->cond = expression();
    expect(Tok::kRParen, "')'");
    s->body = block();
    return s;
  }

  StmtPtr for_stmt() {
    auto s = std::make_unique<For>(expect(Tok::kFor, "'for'").loc);
    const StmtLevel level(*this, s->loc);
    s->var = expect(Tok::kIdent, "loop variable").text;
    expect(Tok::kIn, "'in'");
    s->begin = expression();
    expect(Tok::kDotDot, "'..'");
    s->end = expression();
    s->body = block();
    return s;
  }

  /// Assignment (plain / augmented / field / element) or expression stmt.
  StmtPtr simple_stmt() {
    const SourceLoc loc = cur().loc;

    // Lookahead: IDENT followed by an assignment-shaped suffix.
    if (at(Tok::kIdent)) {
      // var = / var += ...
      const Tok after = peek().kind;
      if (after == Tok::kAssign || after == Tok::kPlusAssign ||
          after == Tok::kMinusAssign || after == Tok::kStarAssign ||
          after == Tok::kPercentAssign) {
        auto a = std::make_unique<Assign>(loc);
        a->target = Assign::Target::kVar;
        a->var = advance().text;
        a->value = rhs_with_desugar(a->var, nullptr, "", advance().kind, loc);
        expect(Tok::kSemi, "';'");
        return a;
      }
      // base.field = ...
      if (after == Tok::kDot && peek(2).kind == Tok::kIdent &&
          is_assign_tok(peek(3).kind)) {
        auto a = std::make_unique<Assign>(loc);
        a->target = Assign::Target::kField;
        a->var = advance().text;
        advance();  // '.'
        a->field = advance().text;
        const Tok op = advance().kind;
        a->value = rhs_with_desugar(a->var, nullptr, a->field, op, loc);
        expect(Tok::kSemi, "';'");
        return a;
      }
      // base[index] = ...  — need to parse the index expression first, so
      // scan: parse speculatively when the '[' is present.
      if (after == Tok::kLBracket) {
        const std::size_t save = pos_;
        std::string base = advance().text;
        advance();  // '['
        ExprPtr index = expression();
        if (at(Tok::kRBracket) && is_assign_tok(peek().kind)) {
          advance();  // ']'
          const Tok op = advance().kind;
          auto a = std::make_unique<Assign>(loc);
          a->target = Assign::Target::kIndex;
          a->var = std::move(base);
          a->index = std::move(index);
          a->value = rhs_with_desugar(a->var, a->index.get(), "", op, loc);
          expect(Tok::kSemi, "';'");
          return a;
        }
        pos_ = save;  // not an element assignment; reparse as expression
      }
    }

    auto s = std::make_unique<ExprStmt>(loc);
    s->expr = expression();
    expect(Tok::kSemi, "';'");
    return s;
  }

  static bool is_assign_tok(Tok t) {
    return t == Tok::kAssign || t == Tok::kPlusAssign ||
           t == Tok::kMinusAssign || t == Tok::kStarAssign ||
           t == Tok::kPercentAssign;
  }

  /// Parse the RHS; for augmented ops, desugar `x op= e` into `x = x op e`
  /// (and similarly for field/index targets).
  ExprPtr rhs_with_desugar(const std::string& base, const Expr* index,
                           const std::string& field, Tok op, SourceLoc loc) {
    ExprPtr rhs = expression();
    if (op == Tok::kAssign) return rhs;

    BinOp bin;
    switch (op) {
      case Tok::kPlusAssign: bin = BinOp::kAdd; break;
      case Tok::kMinusAssign: bin = BinOp::kSub; break;
      case Tok::kStarAssign: bin = BinOp::kMul; break;
      case Tok::kPercentAssign: bin = BinOp::kMod; break;
      default: throw std::logic_error("not an augmented assignment");
    }

    ExprPtr current;
    if (index != nullptr) {
      current = std::make_unique<Index>(std::make_unique<VarRef>(base, loc),
                                        index->clone(), loc);
    } else if (!field.empty()) {
      current = std::make_unique<FieldRef>(std::make_unique<VarRef>(base, loc),
                                           field, loc);
    } else {
      current = std::make_unique<VarRef>(base, loc);
    }
    return std::make_unique<Binary>(bin, std::move(current), std::move(rhs), loc);
  }

  // Expression depth. Later stages recurse on the expression tree, and
  // so does this parser on nesting, so both are capped: `nesting_`
  // counts the unary() frames currently open (parentheses, operands,
  // prefix operators) before descending, and `depth_` is the height of
  // the tree the last expression call returned, which also grows along
  // left-associative chains that are parsed in a loop.
  static constexpr int kMaxExprDepth = 256;

  int checked_depth(int depth, SourceLoc loc) const {
    if (depth > kMaxExprDepth) {
      throw DepthError(loc,
                       "expression nested deeper than " +
                           std::to_string(kMaxExprDepth) + " levels",
                       "NF105");
    }
    return depth;
  }

  ExprPtr expression(int min_prec = 0) {
    ExprPtr lhs = unary();
    int depth = depth_;
    for (;;) {
      const int prec = precedence(cur().kind);
      if (prec < min_prec || prec < 0) break;
      const Token op = advance();
      ExprPtr rhs = expression(prec + 1);  // all operators left-associative
      depth = checked_depth(std::max(depth, depth_) + 1, op.loc);
      lhs = std::make_unique<Binary>(to_binop(op.kind), std::move(lhs),
                                     std::move(rhs), op.loc);
    }
    depth_ = depth;
    return lhs;
  }

  ExprPtr unary() {
    checked_depth(++nesting_, cur().loc);
    ExprPtr e;
    if (at(Tok::kNot) || at(Tok::kMinus)) {
      const Token op = advance();
      e = std::make_unique<Unary>(op.kind == Tok::kNot ? UnOp::kNot : UnOp::kNeg,
                                  unary(), op.loc);
      depth_ = checked_depth(depth_ + 1, op.loc);
    } else {
      e = postfix();
    }
    --nesting_;
    return e;
  }

  ExprPtr postfix() {
    ExprPtr e = primary();
    int depth = depth_;
    for (;;) {
      if (at(Tok::kLBracket)) {
        const SourceLoc loc = advance().loc;
        ExprPtr idx = expression();
        expect(Tok::kRBracket, "']'");
        depth = checked_depth(std::max(depth, depth_) + 1, loc);
        e = std::make_unique<Index>(std::move(e), std::move(idx), loc);
      } else if (at(Tok::kDot) && peek().kind == Tok::kIdent) {
        const SourceLoc loc = advance().loc;
        std::string field = advance().text;
        depth = checked_depth(depth + 1, loc);
        e = std::make_unique<FieldRef>(std::move(e), std::move(field), loc);
      } else {
        depth_ = depth;
        return e;
      }
    }
  }

  ExprPtr primary() {
    const Token t = cur();
    depth_ = 1;  // a leaf; compound literals and calls set their own
    switch (t.kind) {
      case Tok::kInt:
        advance();
        return std::make_unique<IntLit>(t.value, t.loc);
      case Tok::kTrue:
        advance();
        return std::make_unique<BoolLit>(true, t.loc);
      case Tok::kFalse:
        advance();
        return std::make_unique<BoolLit>(false, t.loc);
      case Tok::kString:
        advance();
        return std::make_unique<StrLit>(t.text, t.loc);
      case Tok::kIdent: {
        advance();
        if (at(Tok::kLParen)) {
          advance();
          std::vector<ExprPtr> args;
          int depth = 0;
          if (!at(Tok::kRParen)) {
            do {
              args.push_back(expression());
              depth = std::max(depth, depth_);
            } while (accept(Tok::kComma));
          }
          expect(Tok::kRParen, "')'");
          depth_ = checked_depth(depth + 1, t.loc);
          return std::make_unique<Call>(t.text, std::move(args), t.loc);
        }
        return std::make_unique<VarRef>(t.text, t.loc);
      }
      case Tok::kLParen: {
        advance();
        ExprPtr first = expression();
        if (accept(Tok::kComma)) {
          std::vector<ExprPtr> elems;
          elems.push_back(std::move(first));
          int depth = depth_;
          do {
            elems.push_back(expression());
            depth = std::max(depth, depth_);
          } while (accept(Tok::kComma));
          expect(Tok::kRParen, "')'");
          depth_ = checked_depth(depth + 1, t.loc);
          return std::make_unique<TupleLit>(std::move(elems), t.loc);
        }
        expect(Tok::kRParen, "')'");
        return first;
      }
      case Tok::kLBracket: {
        advance();
        std::vector<ExprPtr> elems;
        int depth = 0;
        while (!at(Tok::kRBracket)) {
          elems.push_back(expression());
          depth = std::max(depth, depth_);
          if (!accept(Tok::kComma)) break;  // trailing comma allowed
        }
        expect(Tok::kRBracket, "']'");
        depth_ = checked_depth(depth + 1, t.loc);
        return std::make_unique<ListLit>(std::move(elems), t.loc);
      }
      case Tok::kLBrace: {
        advance();
        expect(Tok::kRBrace, "'}' (only the empty map literal is supported)");
        return std::make_unique<MapLit>(t.loc);
      }
      default:
        fail("expected expression, found " + token_name(t.kind));
    }
  }

  std::vector<Token> toks_;
  std::string unit_;
  std::size_t pos_ = 0;
  int nesting_ = 0;
  int depth_ = 0;
  int stmt_depth_ = 0;
};

}  // namespace

Program parse(std::string_view source, std::string unit_name) {
  return Parser(lex(source), std::move(unit_name)).run();
}

}  // namespace nfactor::lang
