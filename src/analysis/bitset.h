// Small dense bitset for dataflow fixpoints (std::vector<bool> has the
// right semantics but poor word-level ops; this keeps union/intersection
// word-wide, which matters because reaching defs runs in every
// synthesis, inside perfbench's analysis.slicing_ms).
#pragma once

#include <cstdint>
#include <vector>

namespace nfactor::analysis {

class BitSet {
 public:
  BitSet() = default;
  explicit BitSet(std::size_t bits)
      : bits_(bits), words_((bits + 63) / 64, 0) {}

  std::size_t size() const { return bits_; }

  void set(std::size_t i) { words_[i >> 6] |= 1ULL << (i & 63); }
  void reset(std::size_t i) { words_[i >> 6] &= ~(1ULL << (i & 63)); }
  bool test(std::size_t i) const { return words_[i >> 6] >> (i & 63) & 1; }

  /// this |= other; returns true when any bit changed.
  bool unite(const BitSet& other) {
    bool changed = false;
    for (std::size_t w = 0; w < words_.size(); ++w) {
      const std::uint64_t before = words_[w];
      words_[w] |= other.words_[w];
      changed |= words_[w] != before;
    }
    return changed;
  }

  /// this &= ~other.
  void subtract(const BitSet& other) {
    for (std::size_t w = 0; w < words_.size(); ++w) {
      words_[w] &= ~other.words_[w];
    }
  }

  bool operator==(const BitSet&) const = default;

  template <typename F>
  void for_each(F&& f) const {
    for (std::size_t w = 0; w < words_.size(); ++w) {
      std::uint64_t word = words_[w];
      while (word != 0) {
        const int bit = __builtin_ctzll(word);
        f(w * 64 + static_cast<std::size_t>(bit));
        word &= word - 1;
      }
    }
  }

 private:
  std::size_t bits_ = 0;
  std::vector<std::uint64_t> words_;
};

}  // namespace nfactor::analysis
