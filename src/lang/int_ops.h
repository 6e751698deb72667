// The DSL's integer semantics: the one definition of every integer
// operator, shared by each evaluator of DSL expressions — the concrete
// runtime, SCCP, the symbolic folder, the model evaluator and the
// dataplane stack machine. Every function is defined for every int64
// input; only division and modulo by zero have no value, and each caller
// reports that its own way (docs/DSL.md, "Integer arithmetic"):
//   + - * and negation wrap as two's complement;
//   /  truncates toward zero, and INT64_MIN / -1 wraps to INT64_MIN;
//   %  takes the divisor's sign (7 % -3 == -2, -7 % 3 == 2), and
//      x % -1 == 0;
//   << and >> take the count mod 64, and >> is logical (zero-filling).
#pragma once

#include <cstdint>
#include <optional>

#include "lang/ast.h"

namespace nfactor::lang::int_ops {

using Int = std::int64_t;

namespace detail {
using UInt = std::uint64_t;
constexpr UInt u(Int a) { return static_cast<UInt>(a); }
constexpr Int s(UInt a) { return static_cast<Int>(a); }
}  // namespace detail

constexpr Int add(Int a, Int b) {
  return detail::s(detail::u(a) + detail::u(b));
}
constexpr Int sub(Int a, Int b) {
  return detail::s(detail::u(a) - detail::u(b));
}
constexpr Int mul(Int a, Int b) {
  return detail::s(detail::u(a) * detail::u(b));
}
constexpr Int neg(Int a) { return detail::s(0 - detail::u(a)); }

/// Requires b != 0.
constexpr Int div(Int a, Int b) { return b == -1 ? neg(a) : a / b; }

/// Requires b != 0. A nonzero remainder whose sign differs from the
/// divisor's moves one divisor over; the two then have opposite signs,
/// so the sum cannot overflow.
constexpr Int mod(Int a, Int b) {
  if (b == -1) return 0;
  const Int r = a % b;
  return r != 0 && (r < 0) != (b < 0) ? r + b : r;
}

constexpr Int bit_and(Int a, Int b) { return a & b; }
constexpr Int bit_or(Int a, Int b) { return a | b; }
constexpr Int bit_xor(Int a, Int b) { return a ^ b; }
constexpr Int shl(Int a, Int b) { return detail::s(detail::u(a) << (b & 63)); }
constexpr Int shr(Int a, Int b) { return detail::s(detail::u(a) >> (b & 63)); }

constexpr bool eq(Int a, Int b) { return a == b; }
constexpr bool ne(Int a, Int b) { return a != b; }
constexpr bool lt(Int a, Int b) { return a < b; }
constexpr bool le(Int a, Int b) { return a <= b; }
constexpr bool gt(Int a, Int b) { return a > b; }
constexpr bool ge(Int a, Int b) { return a >= b; }

/// `a op b` for an operator from ints to an int. No value for division
/// or modulo by zero, nor for a comparison, logical or membership op.
constexpr std::optional<Int> apply(BinOp op, Int a, Int b) {
  switch (op) {
    case BinOp::kAdd: return add(a, b);
    case BinOp::kSub: return sub(a, b);
    case BinOp::kMul: return mul(a, b);
    case BinOp::kDiv: return b == 0 ? std::nullopt : std::optional(div(a, b));
    case BinOp::kMod: return b == 0 ? std::nullopt : std::optional(mod(a, b));
    case BinOp::kBitAnd: return bit_and(a, b);
    case BinOp::kBitOr: return bit_or(a, b);
    case BinOp::kBitXor: return bit_xor(a, b);
    case BinOp::kShl: return shl(a, b);
    case BinOp::kShr: return shr(a, b);
    default: return std::nullopt;
  }
}

/// `a op b` for a comparison operator; no value for any other op.
constexpr std::optional<bool> compare(BinOp op, Int a, Int b) {
  switch (op) {
    case BinOp::kEq: return eq(a, b);
    case BinOp::kNe: return ne(a, b);
    case BinOp::kLt: return lt(a, b);
    case BinOp::kLe: return le(a, b);
    case BinOp::kGt: return gt(a, b);
    case BinOp::kGe: return ge(a, b);
    default: return std::nullopt;
  }
}

}  // namespace nfactor::lang::int_ops
