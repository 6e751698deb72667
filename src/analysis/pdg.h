// Program dependence graph (data + control edges) and the backward
// slicer — the core of Algorithm 1's BackwardSlice().
#pragma once

#include <cstdint>
#include <set>
#include <vector>

#include "analysis/control_dep.h"
#include "analysis/reaching_defs.h"
#include "ir/ir.h"

namespace nfactor::analysis {

class Pdg {
 public:
  explicit Pdg(const ir::Cfg& cfg);

  /// Nodes `n` directly depends on (reads values defined by / controlled
  /// by), sorted and distinct.
  const std::vector<int>& data_deps(int n) const {
    return data_[static_cast<std::size_t>(n)];
  }
  const std::vector<int>& control_deps(int n) const {
    return control_[static_cast<std::size_t>(n)];
  }

  /// Backward slice from `criterion`. With `locs` empty, the criterion's
  /// full use set seeds the slice (the usual stmt-level criterion);
  /// otherwise only reaching defs of the given locations seed it.
  /// The criterion itself is always in the slice; the closure follows
  /// data and control dependences transitively.
  std::set<int> backward_slice(int criterion,
                               const std::set<ir::Location>& locs = {}) const;

  /// Slice of several criteria: one closure, equal to the union of their
  /// single-criterion slices.
  std::set<int> backward_slice(const std::set<int>& criteria) const;

  const ir::Cfg& cfg() const { return cfg_; }
  const DefUse& def_use() const { return rd_.def_use(); }

 private:
  const ir::Cfg& cfg_;
  ReachingDefs rd_;
  std::vector<std::vector<int>> data_;
  std::vector<std::vector<int>> control_;
};

/// One backward closure over a PDG's data and control rows. Criteria may
/// be added while it runs, so a caller that discovers new criteria from
/// the slice (StateAlyzer's output-impacting closure) grows one slice
/// instead of re-slicing.
class BackwardClosure {
 public:
  explicit BackwardClosure(const Pdg& pdg)
      : pdg_(pdg), in_(pdg.cfg().size(), 0) {}

  /// Put `n` in the slice. With `follow`, its dependences join the slice
  /// once next() pops it; without, they are left out.
  void add(int n, bool follow = true) {
    char& in = in_[static_cast<std::size_t>(n)];
    if (in) return;
    in = 1;
    ++size_;
    if (follow) work_.push_back(n);
  }

  /// Pop a node of the slice and add its dependences; -1 once the closure
  /// is complete.
  int next();

  /// Complete the closure, record its telemetry and return the slice.
  std::set<int> finish();

 private:
  const Pdg& pdg_;
  std::vector<char> in_;
  std::vector<int> work_;
  std::size_t size_ = 0;
  std::uint64_t pops_ = 0;
};

}  // namespace nfactor::analysis
