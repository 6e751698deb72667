#include "model/validate.h"

#include <sstream>

#include "symex/solver.h"

namespace nfactor::model {

namespace {

std::vector<symex::SymRef> all_conditions(const ModelEntry& e) {
  std::vector<symex::SymRef> out;
  out.insert(out.end(), e.config_match.begin(), e.config_match.end());
  out.insert(out.end(), e.flow_match.begin(), e.flow_match.end());
  out.insert(out.end(), e.state_match.begin(), e.state_match.end());
  return out;
}

}  // namespace

std::string to_string(ValidationIssue::Kind k) {
  switch (k) {
    case ValidationIssue::Kind::kUnsatisfiableEntry: return "unsat-entry";
    case ValidationIssue::Kind::kOverlap: return "overlap";
  }
  return "?";
}

ValidationReport validate(const Model& m) {
  ValidationReport report;
  symex::Solver solver;

  // Dead entries.
  for (std::size_t i = 0; i < m.entries.size(); ++i) {
    if (solver.check(all_conditions(m.entries[i])) ==
        symex::SatResult::kUnsat) {
      report.issues.push_back(
          {ValidationIssue::Kind::kUnsatisfiableEntry, static_cast<int>(i),
           -1, "entry " + std::to_string(i) + " can never match"});
    }
  }

  // Pairwise disjointness within each configuration table.
  const auto tables = m.tables();
  for (const auto& [cfg, entries] : tables) {
    (void)cfg;
    for (std::size_t a = 0; a < entries.size(); ++a) {
      for (std::size_t b = a + 1; b < entries.size(); ++b) {
        if (entries[a]->truncated || entries[b]->truncated) continue;
        ++report.pairs_checked;
        std::vector<symex::SymRef> both = all_conditions(*entries[a]);
        const auto more = all_conditions(*entries[b]);
        both.insert(both.end(), more.begin(), more.end());
        if (solver.check(both) == symex::SatResult::kSat) {
          // The solver is incomplete toward SAT; report as potential
          // overlap only when the entries' flow+state conditions are not
          // simply complementary prefixes. We still surface it — callers
          // treat overlaps as warnings.
          const int ia = static_cast<int>(entries[a] - &m.entries[0]);
          const int ib = static_cast<int>(entries[b] - &m.entries[0]);
          report.issues.push_back(
              {ValidationIssue::Kind::kOverlap, ia, ib,
               "entries " + std::to_string(ia) + " and " + std::to_string(ib) +
                   " may match the same packet/state"});
        }
      }
    }
  }
  return report;
}

std::string ValidationReport::summary() const {
  std::ostringstream os;
  os << issues.size() << " issue(s), " << pairs_checked
     << " disjointness pairs checked";
  for (const auto& i : issues) {
    os << "\n  [" << to_string(i.kind) << "] " << i.detail;
  }
  return os.str();
}

}  // namespace nfactor::model
