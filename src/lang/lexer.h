#pragma once

#include <string_view>
#include <vector>

#include "lang/token.h"

namespace nfactor::lang {

/// Tokenize a whole compilation unit. `#` starts a line comment.
/// Integer literals: decimal, 0x hex, and dotted-quad IPv4 (3.3.3.3),
/// which lexes to the 32-bit big-endian integer value — the DSL has no
/// floating point, so the form is unambiguous.
/// Throws LexError on malformed input, and on identifiers that start
/// with kTempPrefix.
std::vector<Token> lex(std::string_view source);

/// Prefix of the lowerer's temporaries (`__t1`, `__t2`, ...). No source
/// identifier has it, so StateAlyzer and lint can tell temporaries by
/// name.
inline constexpr std::string_view kTempPrefix = "__t";

inline bool is_temporary(std::string_view name) {
  return name.starts_with(kTempPrefix);
}

}  // namespace nfactor::lang
