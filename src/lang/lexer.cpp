#include "lang/lexer.h"

#include <cctype>
#include <limits>
#include <string>
#include <unordered_map>

#include "lang/diagnostics.h"

namespace nfactor::lang {

namespace {

const std::unordered_map<std::string_view, Tok>& keywords() {
  static const std::unordered_map<std::string_view, Tok> kw = {
      {"var", Tok::kVar},        {"def", Tok::kDef},
      {"if", Tok::kIf},          {"else", Tok::kElse},
      {"while", Tok::kWhile},    {"for", Tok::kFor},
      {"in", Tok::kIn},          {"return", Tok::kReturn},
      {"break", Tok::kBreak},    {"continue", Tok::kContinue},
      {"true", Tok::kTrue},      {"false", Tok::kFalse},
  };
  return kw;
}

class Lexer {
 public:
  explicit Lexer(std::string_view src) : src_(src) {}

  std::vector<Token> run() {
    std::vector<Token> out;
    for (;;) {
      skip_trivia();
      Token t = next();
      const bool eof = t.kind == Tok::kEof;
      out.push_back(std::move(t));
      if (eof) return out;
    }
  }

 private:
  char peek(std::size_t ahead = 0) const {
    return pos_ + ahead < src_.size() ? src_[pos_ + ahead] : '\0';
  }

  char advance() {
    const char c = src_[pos_++];
    if (c == '\n') {
      ++line_;
      col_ = 1;
    } else {
      ++col_;
    }
    return c;
  }

  void skip_trivia() {
    for (;;) {
      const char c = peek();
      if (c == ' ' || c == '\t' || c == '\r' || c == '\n') {
        advance();
      } else if (c == '#') {
        while (peek() != '\n' && peek() != '\0') advance();
      } else {
        return;
      }
    }
  }

  Token make(Tok kind) {
    Token t;
    t.kind = kind;
    t.loc = start_;
    return t;
  }

  [[noreturn]] void fail(const std::string& msg) const {
    throw LexError({line_, col_}, msg);
  }

  Token next() {
    start_ = {line_, col_};
    if (pos_ >= src_.size()) return make(Tok::kEof);
    const char c = advance();

    if (std::isdigit(static_cast<unsigned char>(c))) return number(c);
    if (std::isalpha(static_cast<unsigned char>(c)) || c == '_') return ident(c);

    switch (c) {
      case '"': return string_lit();
      case '(': return make(Tok::kLParen);
      case ')': return make(Tok::kRParen);
      case '{': return make(Tok::kLBrace);
      case '}': return make(Tok::kRBrace);
      case '[': return make(Tok::kLBracket);
      case ']': return make(Tok::kRBracket);
      case ',': return make(Tok::kComma);
      case ';': return make(Tok::kSemi);
      case ':': return make(Tok::kColon);
      case '.':
        if (peek() == '.') { advance(); return make(Tok::kDotDot); }
        return make(Tok::kDot);
      case '+':
        if (peek() == '=') { advance(); return make(Tok::kPlusAssign); }
        return make(Tok::kPlus);
      case '-':
        if (peek() == '=') { advance(); return make(Tok::kMinusAssign); }
        return make(Tok::kMinus);
      case '*':
        if (peek() == '=') { advance(); return make(Tok::kStarAssign); }
        return make(Tok::kStar);
      case '/': return make(Tok::kSlash);
      case '%':
        if (peek() == '=') { advance(); return make(Tok::kPercentAssign); }
        return make(Tok::kPercent);
      case '=':
        if (peek() == '=') { advance(); return make(Tok::kEq); }
        return make(Tok::kAssign);
      case '!':
        if (peek() == '=') { advance(); return make(Tok::kNe); }
        return make(Tok::kNot);
      case '<':
        if (peek() == '=') { advance(); return make(Tok::kLe); }
        if (peek() == '<') { advance(); return make(Tok::kShl); }
        return make(Tok::kLt);
      case '>':
        if (peek() == '=') { advance(); return make(Tok::kGe); }
        if (peek() == '>') { advance(); return make(Tok::kShr); }
        return make(Tok::kGt);
      case '&':
        if (peek() == '&') { advance(); return make(Tok::kAndAnd); }
        return make(Tok::kAmp);
      case '|':
        if (peek() == '|') { advance(); return make(Tok::kOrOr); }
        return make(Tok::kPipe);
      case '^': return make(Tok::kCaret);
      default:
        fail(std::string("unexpected character '") + c + "'");
    }
  }

  Token ident(char first) {
    std::string text(1, first);
    while (std::isalnum(static_cast<unsigned char>(peek())) || peek() == '_') {
      text.push_back(advance());
    }
    const auto& kw = keywords();
    if (const auto it = kw.find(text); it != kw.end()) return make(it->second);
    // A user name with the temporaries' prefix would be taken for one
    // (or clash with one).
    if (is_temporary(text)) {
      throw LexError(start_, "identifier '" + text + "': the prefix '" +
                                 std::string(kTempPrefix) +
                                 "' is reserved for compiler temporaries");
    }
    Token t = make(Tok::kIdent);
    t.text = std::move(text);
    return t;
  }

  Token string_lit() {
    std::string text;
    for (;;) {
      const char c = peek();
      if (c == '\0' || c == '\n') fail("unterminated string literal");
      advance();
      if (c == '"') break;
      if (c == '\\') {
        const char esc = peek();
        advance();
        switch (esc) {
          case 'n': text.push_back('\n'); break;
          case 't': text.push_back('\t'); break;
          case '\\': text.push_back('\\'); break;
          case '"': text.push_back('"'); break;
          default: fail("unknown escape sequence");
        }
      } else {
        text.push_back(c);
      }
    }
    Token t = make(Tok::kString);
    t.text = std::move(text);
    return t;
  }

  Token number(char first) {
    const std::size_t begin = pos_ - 1;
    // Digits accumulate into `v` until it would pass INT64_MAX; the
    // literal is then rejected once all of it has been read.
    bool too_big = false;
    const auto push_digit = [&](std::int64_t& v, int base, int d) {
      if (v > (std::numeric_limits<std::int64_t>::max() - d) / base) {
        too_big = true;
      } else {
        v = v * base + d;
      }
    };
    const auto literal = [&](std::int64_t v) {
      if (too_big) {
        const std::string text(src_.substr(begin, pos_ - begin));
        throw LexError(start_, "integer literal '" + text +
                                   "' does not fit in a 64-bit signed integer");
      }
      Token t = make(Tok::kInt);
      t.value = v;
      return t;
    };

    // Hex
    if (first == '0' && (peek() == 'x' || peek() == 'X')) {
      advance();
      std::int64_t v = 0;
      bool any = false;
      while (std::isxdigit(static_cast<unsigned char>(peek()))) {
        const char d = advance();
        any = true;
        push_digit(v, 16,
                   std::isdigit(static_cast<unsigned char>(d))
                       ? d - '0'
                       : std::tolower(d) - 'a' + 10);
      }
      if (!any) fail("malformed hex literal");
      return literal(v);
    }

    auto read_decimal = [&](char lead) {
      std::int64_t v = lead - '0';
      while (std::isdigit(static_cast<unsigned char>(peek()))) {
        push_digit(v, 10, advance() - '0');
      }
      return v;
    };

    std::int64_t v = read_decimal(first);
    // Dotted-quad IPv4 literal: a '.' followed by a digit (a '..' range
    // operator follows with a second '.', so peek one further).
    if (peek() == '.' && std::isdigit(static_cast<unsigned char>(peek(1)))) {
      std::int64_t octets[4] = {v, 0, 0, 0};
      for (int i = 1; i < 4; ++i) {
        if (peek() != '.') fail("malformed IPv4 literal");
        advance();
        if (!std::isdigit(static_cast<unsigned char>(peek()))) {
          fail("malformed IPv4 literal");
        }
        octets[i] = read_decimal(advance());
      }
      if (too_big) return literal(0);  // throws, naming the literal
      std::int64_t addr = 0;
      for (const std::int64_t o : octets) {
        if (o > 255) fail("IPv4 octet out of range");
        addr = addr << 8 | o;
      }
      return literal(addr);
    }
    return literal(v);
  }

  std::string_view src_;
  std::size_t pos_ = 0;
  int line_ = 1;
  int col_ = 1;
  SourceLoc start_;
};

}  // namespace

std::string token_name(Tok t) {
  switch (t) {
    case Tok::kEof: return "end of input";
    case Tok::kInt: return "integer literal";
    case Tok::kString: return "string literal";
    case Tok::kIdent: return "identifier";
    case Tok::kVar: return "'var'";
    case Tok::kDef: return "'def'";
    case Tok::kIf: return "'if'";
    case Tok::kElse: return "'else'";
    case Tok::kWhile: return "'while'";
    case Tok::kFor: return "'for'";
    case Tok::kIn: return "'in'";
    case Tok::kReturn: return "'return'";
    case Tok::kBreak: return "'break'";
    case Tok::kContinue: return "'continue'";
    case Tok::kTrue: return "'true'";
    case Tok::kFalse: return "'false'";
    case Tok::kLParen: return "'('";
    case Tok::kRParen: return "')'";
    case Tok::kLBrace: return "'{'";
    case Tok::kRBrace: return "'}'";
    case Tok::kLBracket: return "'['";
    case Tok::kRBracket: return "']'";
    case Tok::kComma: return "','";
    case Tok::kSemi: return "';'";
    case Tok::kDot: return "'.'";
    case Tok::kDotDot: return "'..'";
    case Tok::kColon: return "':'";
    case Tok::kAssign: return "'='";
    case Tok::kPlusAssign: return "'+='";
    case Tok::kMinusAssign: return "'-='";
    case Tok::kStarAssign: return "'*='";
    case Tok::kPercentAssign: return "'%='";
    case Tok::kPlus: return "'+'";
    case Tok::kMinus: return "'-'";
    case Tok::kStar: return "'*'";
    case Tok::kSlash: return "'/'";
    case Tok::kPercent: return "'%'";
    case Tok::kEq: return "'=='";
    case Tok::kNe: return "'!='";
    case Tok::kLt: return "'<'";
    case Tok::kLe: return "'<='";
    case Tok::kGt: return "'>'";
    case Tok::kGe: return "'>='";
    case Tok::kAndAnd: return "'&&'";
    case Tok::kOrOr: return "'||'";
    case Tok::kNot: return "'!'";
    case Tok::kAmp: return "'&'";
    case Tok::kPipe: return "'|'";
    case Tok::kCaret: return "'^'";
    case Tok::kShl: return "'<<'";
    case Tok::kShr: return "'>>'";
  }
  return "?";
}

std::vector<Token> lex(std::string_view source) { return Lexer(source).run(); }

}  // namespace nfactor::lang
