// Bit-vector dataflow over the statement CFG: one worklist solver under
// reaching definitions (forward, union, over def ids), live locations
// (backward, union, over location ids) and lint's definite assignment
// (forward, intersection, over variable ids). A problem supplies only its
// transfer, which turns the meet of a node's neighbours' out rows into
// the node's own out row. The neighbours are the predecessors for a
// forward problem and the successors for a backward one, so for a
// backward problem `in` holds the value on exit from a node and `out`
// the value on entry to it.
#pragma once

#include <algorithm>
#include <cstdint>
#include <deque>
#include <vector>

#include "ir/ir.h"

namespace nfactor::analysis {

/// Rows of equal-width bitsets in one flat word array: a table of rows
/// is one allocation, and meets and copies run a word at a time.
class BitRows {
 public:
  BitRows() = default;
  BitRows(std::size_t rows, std::size_t bits, std::uint64_t fill = 0)
      : words_((bits + 63) / 64), data_(rows * words_, fill) {}

  std::size_t words() const { return words_; }
  std::uint64_t* row(std::size_t r) { return data_.data() + r * words_; }
  const std::uint64_t* row(std::size_t r) const {
    return data_.data() + r * words_;
  }

  static bool test(const std::uint64_t* row, std::size_t i) {
    return row[i >> 6] >> (i & 63) & 1;
  }
  static void set(std::uint64_t* row, std::size_t i) {
    row[i >> 6] |= 1ULL << (i & 63);
  }
  static void reset(std::uint64_t* row, std::size_t i) {
    row[i >> 6] &= ~(1ULL << (i & 63));
  }

 private:
  std::size_t words_ = 0;
  std::vector<std::uint64_t> data_;
};

enum class Direction : std::uint8_t { kForward, kBackward };
enum class Meet : std::uint8_t { kUnion, kIntersect };

struct BitFlow {
  BitRows in;   // per node: the meet of its neighbours' out rows
  BitRows out;  // per node: its transfer applied to `in`
};

/// Solves to the fixpoint over `bits`-wide rows: the least one for a
/// union, the greatest for an intersection (every row starts full).
/// `transfer(node, row)` rewrites `row`, a copy of the node's in row, in
/// place into its out row. The boundary node (the entry forward, the exit
/// backward) meets its neighbours with an empty set, so an intersection
/// starts empty there; a node without neighbours keeps the meet's
/// identity.
template <class Transfer>
BitFlow solve(const ir::Cfg& cfg, Direction dir, Meet meet, std::size_t bits,
              Transfer&& transfer) {
  const std::size_t nodes = cfg.size();
  const bool forward = dir == Direction::kForward;
  const bool inter = meet == Meet::kIntersect;
  const std::uint64_t identity = inter ? ~0ULL : 0;
  BitFlow f{BitRows(nodes, bits, identity), BitRows(nodes, bits, identity)};
  const int boundary = forward ? cfg.entry : cfg.exit;

  // Every node is visited once, in flow order, then again whenever a
  // neighbour's out row changes.
  std::deque<int> work;
  std::vector<char> queued(nodes, 1);
  for (std::size_t i = 0; i < nodes; ++i) {
    work.push_back(static_cast<int>(forward ? i : nodes - 1 - i));
  }
  const std::size_t words = f.in.words();
  std::vector<std::uint64_t> next(words);
  while (!work.empty()) {
    const int u = work.front();
    work.pop_front();
    const auto ui = static_cast<std::size_t>(u);
    queued[ui] = 0;
    const ir::Instr& node = cfg.node(u);

    std::uint64_t* in = f.in.row(ui);
    const bool empty = inter && u == boundary;
    std::fill(in, in + words, empty ? 0 : identity);
    for (const int p : forward ? node.preds : node.succs) {
      if (p < 0 || empty) continue;
      const std::uint64_t* po = f.out.row(static_cast<std::size_t>(p));
      if (inter) {
        for (std::size_t w = 0; w < words; ++w) in[w] &= po[w];
      } else {
        for (std::size_t w = 0; w < words; ++w) in[w] |= po[w];
      }
    }

    std::copy(in, in + words, next.begin());
    transfer(u, next.data());
    std::uint64_t* out = f.out.row(ui);
    if (std::equal(next.begin(), next.end(), out)) continue;
    std::copy(next.begin(), next.end(), out);
    for (const int s : forward ? node.succs : node.preds) {
      if (s >= 0 && !queued[static_cast<std::size_t>(s)]) {
        queued[static_cast<std::size_t>(s)] = 1;
        work.push_back(s);
      }
    }
  }
  return f;
}

}  // namespace nfactor::analysis
