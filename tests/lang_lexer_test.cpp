#include "lang/lexer.h"

#include <gtest/gtest.h>

#include "lang/diagnostics.h"

namespace nfactor::lang {
namespace {

std::vector<Tok> kinds(const std::string& src) {
  std::vector<Tok> out;
  for (const auto& t : lex(src)) out.push_back(t.kind);
  return out;
}

TEST(Lexer, EmptyInputYieldsEof) {
  const auto toks = lex("");
  ASSERT_EQ(toks.size(), 1u);
  EXPECT_EQ(toks[0].kind, Tok::kEof);
}

TEST(Lexer, SkipsWhitespaceAndComments) {
  const auto toks = lex("  # a comment\n\t x # trailing\n");
  ASSERT_EQ(toks.size(), 2u);
  EXPECT_EQ(toks[0].kind, Tok::kIdent);
  EXPECT_EQ(toks[0].text, "x");
}

TEST(Lexer, DecimalAndHexLiterals) {
  const auto toks = lex("0 42 0x1F 0xff");
  EXPECT_EQ(toks[0].value, 0);
  EXPECT_EQ(toks[1].value, 42);
  EXPECT_EQ(toks[2].value, 0x1F);
  EXPECT_EQ(toks[3].value, 0xFF);
}

TEST(Lexer, Ipv4LiteralLexesToBigEndianValue) {
  const auto toks = lex("3.3.3.3 10.0.0.1 255.255.255.0");
  EXPECT_EQ(toks[0].value, 0x03030303);
  EXPECT_EQ(toks[1].value, 0x0A000001);
  EXPECT_EQ(toks[2].value, 0xFFFFFF00);
}

TEST(Lexer, Ipv4OctetRangeChecked) {
  EXPECT_THROW(lex("1.2.3.999"), LexError);
  EXPECT_THROW(lex("1.2.3."), LexError);
}

TEST(Lexer, LiteralsUpToInt64MaxLex) {
  const auto toks = lex("9223372036854775807 0x7fffffffffffffff");
  EXPECT_EQ(toks[0].value, INT64_MAX);
  EXPECT_EQ(toks[1].value, INT64_MAX);
}

TEST(Lexer, LiteralsAboveInt64MaxAreRejectedByName) {
  for (const std::string lit :
       {"9223372036854775808", "0x8000000000000000",
        "99999999999999999999.1.1.1"}) {
    try {
      lex("x = " + lit + ";");
      ADD_FAILURE() << lit << " lexed";
    } catch (const LexError& e) {
      EXPECT_NE(e.diag().message.find("'" + lit + "'"), std::string::npos)
          << e.diag().message;
      EXPECT_EQ(e.diag().loc.col, 5) << lit;
    }
  }
}

TEST(Lexer, RangeOperatorIsNotAnIpLiteral) {
  // `0..n` must lex as INT DOTDOT IDENT, not a malformed IP.
  const auto k = kinds("0..n");
  ASSERT_EQ(k.size(), 4u);
  EXPECT_EQ(k[0], Tok::kInt);
  EXPECT_EQ(k[1], Tok::kDotDot);
  EXPECT_EQ(k[2], Tok::kIdent);
}

TEST(Lexer, FieldAccessAfterIdent) {
  const auto k = kinds("pkt.ip_src");
  ASSERT_EQ(k.size(), 4u);
  EXPECT_EQ(k[0], Tok::kIdent);
  EXPECT_EQ(k[1], Tok::kDot);
  EXPECT_EQ(k[2], Tok::kIdent);
}

TEST(Lexer, Keywords) {
  const auto k = kinds("var def if else while for in return break continue true false");
  const std::vector<Tok> want = {
      Tok::kVar, Tok::kDef, Tok::kIf, Tok::kElse, Tok::kWhile, Tok::kFor,
      Tok::kIn, Tok::kReturn, Tok::kBreak, Tok::kContinue, Tok::kTrue,
      Tok::kFalse, Tok::kEof};
  EXPECT_EQ(k, want);
}

TEST(Lexer, KeywordPrefixesAreIdents) {
  const auto toks = lex("iffy variable formal");
  EXPECT_EQ(toks[0].kind, Tok::kIdent);
  EXPECT_EQ(toks[1].kind, Tok::kIdent);
  EXPECT_EQ(toks[2].kind, Tok::kIdent);
}

TEST(Lexer, TwoCharOperators) {
  const auto k = kinds("== != <= >= && || << >> += -= *= %= ..");
  const std::vector<Tok> want = {
      Tok::kEq, Tok::kNe, Tok::kLe, Tok::kGe, Tok::kAndAnd, Tok::kOrOr,
      Tok::kShl, Tok::kShr, Tok::kPlusAssign, Tok::kMinusAssign,
      Tok::kStarAssign, Tok::kPercentAssign, Tok::kDotDot, Tok::kEof};
  EXPECT_EQ(k, want);
}

TEST(Lexer, SingleCharOperators) {
  const auto k = kinds("+ - * / % < > = ! & | ^ ( ) { } [ ] , ; : .");
  const std::vector<Tok> want = {
      Tok::kPlus, Tok::kMinus, Tok::kStar, Tok::kSlash, Tok::kPercent,
      Tok::kLt, Tok::kGt, Tok::kAssign, Tok::kNot, Tok::kAmp, Tok::kPipe,
      Tok::kCaret, Tok::kLParen, Tok::kRParen, Tok::kLBrace, Tok::kRBrace,
      Tok::kLBracket, Tok::kRBracket, Tok::kComma, Tok::kSemi, Tok::kColon,
      Tok::kDot, Tok::kEof};
  EXPECT_EQ(k, want);
}

TEST(Lexer, StringLiteralsWithEscapes) {
  const auto toks = lex(R"("eth0" "a\nb" "q\"q" "back\\slash")");
  EXPECT_EQ(toks[0].text, "eth0");
  EXPECT_EQ(toks[1].text, "a\nb");
  EXPECT_EQ(toks[2].text, "q\"q");
  EXPECT_EQ(toks[3].text, "back\\slash");
}

TEST(Lexer, UnterminatedStringThrows) {
  EXPECT_THROW(lex("\"oops"), LexError);
  EXPECT_THROW(lex("\"oops\n\""), LexError);
}

TEST(Lexer, CompilerTemporaryPrefixIsReserved) {
  EXPECT_THROW(lex("__t1"), LexError);
  EXPECT_THROW(lex("x = __tstate;"), LexError);
  const auto toks = lex("__state _t t__t __payload");
  ASSERT_EQ(toks.size(), 5u);
  EXPECT_EQ(toks[0].text, "__state");
  EXPECT_EQ(toks[3].text, "__payload");
}

TEST(Lexer, UnknownEscapeThrows) { EXPECT_THROW(lex(R"("\q")"), LexError); }

TEST(Lexer, UnexpectedCharacterThrows) {
  EXPECT_THROW(lex("@"), LexError);
  EXPECT_THROW(lex("~"), LexError);
}

TEST(Lexer, MalformedHexThrows) { EXPECT_THROW(lex("0x"), LexError); }

TEST(Lexer, TracksLineAndColumn) {
  const auto toks = lex("a\n  b\nccc d");
  EXPECT_EQ(toks[0].loc.line, 1);
  EXPECT_EQ(toks[0].loc.col, 1);
  EXPECT_EQ(toks[1].loc.line, 2);
  EXPECT_EQ(toks[1].loc.col, 3);
  EXPECT_EQ(toks[2].loc.line, 3);
  EXPECT_EQ(toks[3].loc.line, 3);
  EXPECT_EQ(toks[3].loc.col, 5);
}

TEST(Lexer, TokenNamesAreHumanReadable) {
  EXPECT_EQ(token_name(Tok::kEq), "'=='");
  EXPECT_EQ(token_name(Tok::kIdent), "identifier");
  EXPECT_EQ(token_name(Tok::kEof), "end of input");
  // Every token kind has a non-"?" name.
  for (int t = 0; t <= static_cast<int>(Tok::kShr); ++t) {
    EXPECT_NE(token_name(static_cast<Tok>(t)), "?");
  }
}

}  // namespace
}  // namespace nfactor::lang
