// Rows of equal-width bitsets in one flat word array, for dataflow
// fixpoints: reaching defs keeps one row per CFG node (inside perfbench's
// analysis.slicing_ms), so a table of rows is one allocation, and
// unions and copies run a word at a time.
#pragma once

#include <cstdint>
#include <vector>

namespace nfactor::analysis {

class BitRows {
 public:
  BitRows() = default;
  BitRows(std::size_t rows, std::size_t bits)
      : words_((bits + 63) / 64), data_(rows * words_, 0) {}

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

}  // namespace nfactor::analysis
