#include "verify/compliance.h"

#include <optional>
#include <sstream>

#include "model/interp.h"
#include "runtime/interp.h"
#include "symex/concrete_eval.h"
#include "verify/probe.h"

namespace nfactor::verify {

namespace {

using symex::SymKind;
using symex::SymRef;

std::string to_statusless_note(const std::string& why) { return why; }

/// Positive map-membership requirement extracted from a state match.
struct MembershipNeed {
  std::string map_name;  // MapBase name
  SymRef key_expr;       // over pkt.* symbols of the probe
};

/// Inspect state_match: return needs (positive Contains on a MapBase).
/// Negative Contains and other state predicates are fine on a *fresh*
/// state, so they need no priming.
bool analyze_state_match(const std::vector<SymRef>& state_match,
                         std::vector<MembershipNeed>& needs) {
  for (const auto& c : state_match) {
    SymRef e = c;
    bool polarity = true;
    while (e->kind == SymKind::kUn && e->un_op == lang::UnOp::kNot) {
      e = e->operands[0];
      polarity = !polarity;
    }
    if (e->kind == SymKind::kContains) {
      if (!polarity) continue;  // absent on fresh state: OK
      const SymRef& container = e->operands[0];
      if (container->kind != SymKind::kMapBase) return false;
      needs.push_back({container->str_val, e->operands[1]});
      continue;
    }
    // Non-membership state predicates (e.g. MapGet(...) == 1, counters):
    // handled only when the priming step establishes them; accept
    // optimistically — the run phase verifies actual compliance.
  }
  return true;
}

/// Invert a tuple-of-packet-fields key expression: assign probe fields so
/// key(probe) == wanted.
bool invert_key(const SymRef& key_expr, const runtime::Tuple& wanted,
                ProbeBuilder& probe) {
  if (key_expr->kind == SymKind::kTupleExpr) {
    if (key_expr->operands.size() != wanted.size()) return false;
    for (std::size_t i = 0; i < wanted.size(); ++i) {
      const auto f = pkt_field_of(key_expr->operands[i]);
      if (!f) return false;
      if (!probe.set_field(*f, wanted[i])) return false;
    }
    return true;
  }
  if (const auto f = pkt_field_of(key_expr); f && wanted.size() == 1) {
    return probe.set_field(*f, wanted[0]);
  }
  return false;
}

}  // namespace

std::string to_string(CaseStatus s) {
  switch (s) {
    case CaseStatus::kPassed: return "passed";
    case CaseStatus::kFailed: return "failed";
    case CaseStatus::kUncovered: return "uncovered";
    case CaseStatus::kConfigSkip: return "config-skip";
  }
  return "?";
}

std::string ComplianceReport::summary() const {
  std::ostringstream os;
  os << passed << " passed, " << failed << " failed, " << uncovered
     << " uncovered, " << config_skipped << " config-skipped (of "
     << cases.size() << " entries)";
  return os.str();
}

ComplianceReport run_compliance(const ir::Module& module,
                                const model::Model& model) {
  ComplianceReport report;
  const auto store = model::initial_store(module);
  const symex::ConcreteEnv cfg_env = symex::store_env(store);

  for (std::size_t ei = 0; ei < model.entries.size(); ++ei) {
    const model::ModelEntry& entry = model.entries[ei];
    TestCase tc;
    tc.entry_index = static_cast<int>(ei);

    // Entry must belong to the deployed configuration.
    bool config_ok = true;
    for (const auto& c : entry.config_match) {
      const auto v = try_const(c, cfg_env);
      if (!v || *v == 0) config_ok = false;
    }
    if (!config_ok) {
      tc.status = CaseStatus::kConfigSkip;
      tc.note = "entry belongs to a different configuration table";
      report.cases.push_back(std::move(tc));
      ++report.config_skipped;
      continue;
    }

    // Build the probe from the flow match.
    ProbeBuilder probe(cfg_env);
    bool ok = true;
    for (const auto& c : entry.flow_match) {
      if (!probe.apply(c)) {
        ok = false;
        tc.note = to_statusless_note("unsupported flow constraint: " +
                                     symex::to_string(*c));
        break;
      }
    }

    // State setup via priming.
    std::vector<MembershipNeed> needs;
    if (ok && !analyze_state_match(entry.state_match, needs)) {
      ok = false;
      tc.note = "state match too complex to synthesize";
    }
    std::vector<netsim::Packet> priming;
    if (ok && !needs.empty()) {
      for (const auto& need : needs) {
        // Find an inserter entry for this map whose own state match has
        // no positive membership requirement.
        bool primed = false;
        for (const auto& other : model.entries) {
          const auto it = other.state_action.find(need.map_name);
          if (it == other.state_action.end()) continue;
          if (it->second->kind != SymKind::kMapStore) continue;
          std::vector<MembershipNeed> sub;
          if (!analyze_state_match(other.state_match, sub) || !sub.empty()) {
            continue;
          }
          bool other_cfg_ok = true;
          for (const auto& c : other.config_match) {
            const auto v = try_const(c, cfg_env);
            if (!v || *v == 0) other_cfg_ok = false;
          }
          if (!other_cfg_ok) continue;

          ProbeBuilder prime(cfg_env);
          bool prime_ok = true;
          for (const auto& c : other.flow_match) {
            if (!prime.apply(c)) {
              prime_ok = false;
              break;
            }
          }
          if (!prime_ok) continue;

          // Key the priming packet inserts.
          const netsim::Packet prime_pkt = prime.packet();
          const symex::ConcreteEnv pk_env =
              symex::store_env(store, &prime_pkt);
          try {
            const runtime::Value inserted_key =
                symex::eval_concrete(it->second->operands[1], pk_env);
            const runtime::Tuple key = runtime::to_key(inserted_key);
            if (!invert_key(need.key_expr, key, probe)) continue;
          } catch (const std::exception&) {
            continue;
          }
          priming.push_back(prime_pkt);
          primed = true;
          break;
        }
        if (!primed) {
          ok = false;
          tc.note = "no priming entry found for map '" + need.map_name + "'";
          break;
        }
      }
    }

    if (!ok) {
      tc.status = CaseStatus::kUncovered;
      report.cases.push_back(std::move(tc));
      ++report.uncovered;
      continue;
    }

    // Execute the sequence against both sides.
    tc.sequence = priming;
    tc.sequence.push_back(probe.packet());

    runtime::Interpreter orig(module);
    model::ModelInterpreter synth(model, store);
    bool behaviour_match = true;
    int matched_entry = -1;
    for (std::size_t i = 0; i < tc.sequence.size(); ++i) {
      const runtime::Output oo = orig.process(tc.sequence[i]);
      const model::ModelOutput mo = synth.process(tc.sequence[i]);
      if (i + 1 == tc.sequence.size()) matched_entry = mo.matched_entry;
      if (oo.sent.size() != mo.sent.size()) {
        behaviour_match = false;
        break;
      }
      for (std::size_t k = 0; k < oo.sent.size(); ++k) {
        if (!(oo.sent[k].first == mo.sent[k].first) ||
            oo.sent[k].second != mo.sent[k].second) {
          behaviour_match = false;
          break;
        }
      }
    }

    if (behaviour_match && matched_entry == tc.entry_index) {
      tc.status = CaseStatus::kPassed;
      ++report.passed;
    } else if (!behaviour_match) {
      tc.status = CaseStatus::kFailed;
      tc.note = "original and model diverged on the generated sequence";
      ++report.failed;
    } else {
      tc.status = CaseStatus::kUncovered;
      tc.note = "probe matched entry " + std::to_string(matched_entry) +
                " instead (overlapping matches)";
      ++report.uncovered;
    }
    report.cases.push_back(std::move(tc));
  }
  return report;
}

}  // namespace nfactor::verify
