// Model consistency validation — the check a vendor workflow needs once
// models are artifacts that get shipped, hand-tuned, and revised across
// NF versions (§1: vendors run NFactor and hand operators "only the
// resultant models"). Comparing two model versions is src/diff/'s job.
//
// validate(): solver-backed checks that
//   - every entry's own match conjunction is satisfiable (an unsat entry
//     is dead — it can never fire);
//   - entries within one configuration table are pairwise disjoint
//     (overlapping entries make the model order-dependent; SE-derived
//     entries are disjoint by construction, so any overlap indicates a
//     hand edit or a truncated path).
#pragma once

#include <string>
#include <vector>

#include "model/model.h"

namespace nfactor::model {

struct ValidationIssue {
  enum class Kind : std::uint8_t {
    kUnsatisfiableEntry,  // entry can never match
    kOverlap,             // two entries can match the same packet+state
  };
  Kind kind;
  int entry_a = -1;
  int entry_b = -1;  // kOverlap only
  std::string detail;
};

std::string to_string(ValidationIssue::Kind k);

struct ValidationReport {
  std::vector<ValidationIssue> issues;
  std::size_t pairs_checked = 0;
  bool ok() const { return issues.empty(); }
  std::string summary() const;
};

/// Solver-backed consistency check. Truncated entries are exempt from
/// the disjointness requirement (their conditions are prefixes).
ValidationReport validate(const Model& m);

}  // namespace nfactor::model
