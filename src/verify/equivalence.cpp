#include "verify/equivalence.h"

#include <map>
#include <set>
#include <sstream>

#include "lint/simplify.h"
#include "model/interp.h"
#include "runtime/interp.h"
#include "symex/concrete_eval.h"
#include "symex/solver.h"

namespace nfactor::verify {

namespace {

std::string describe_send(const netsim::Packet& p, int port) {
  return netsim::to_string(p) + " @" + std::to_string(port);
}

}  // namespace

DiffResult differential_test(const ir::Module& module,
                             const statealyzer::Result& cats,
                             const model::Model& model,
                             std::span<const netsim::Packet> packets) {
  DiffResult r;
  runtime::Interpreter orig(module);
  model::ModelInterpreter synth(model, model::initial_store(module));

  for (const netsim::Packet& in : packets) {
    ++r.packets;
    const runtime::Output oo = orig.process(in);
    const model::ModelOutput mo = synth.process(in);
    r.original_sent += static_cast<int>(oo.sent.size());
    r.model_sent += static_cast<int>(mo.sent.size());

    bool mismatch = oo.sent.size() != mo.sent.size();
    if (!mismatch) {
      for (std::size_t i = 0; i < oo.sent.size(); ++i) {
        if (!(oo.sent[i].first == mo.sent[i].first) ||
            oo.sent[i].second != mo.sent[i].second) {
          mismatch = true;
          break;
        }
      }
    }
    if (mismatch) {
      ++r.mismatches;
      if (!r.has_first_mismatch) {
        r.has_first_mismatch = true;
        r.first_mismatch_entry = mo.matched_entry;
        r.first_mismatch_packet = netsim::to_string(in);
      }
      if (r.details.size() < 8) {
        std::ostringstream os;
        os << "in=" << netsim::to_string(in) << " original={";
        for (const auto& [p, port] : oo.sent) os << describe_send(p, port) << ' ';
        os << "} model={";
        for (const auto& [p, port] : mo.sent) os << describe_send(p, port) << ' ';
        os << '}';
        r.details.push_back(os.str());
      }
    }
  }

  // Output-impacting state must agree at the end of the stream.
  for (const auto& var : cats.ois_vars) {
    const runtime::Value* ov = orig.global(var);
    const runtime::Value* mv = synth.state(var);
    const bool both = ov != nullptr && mv != nullptr;
    if (!both || !runtime::value_eq(*ov, *mv)) {
      ++r.mismatches;
      if (r.details.size() < 8) {
        r.details.push_back(
            "state '" + var + "' diverged: original=" +
            (ov ? runtime::to_string(*ov) : "<missing>") +
            " model=" + (mv ? runtime::to_string(*mv) : "<missing>"));
      }
    }
  }
  return r;
}

std::string action_signature(const symex::ExecPath& path,
                             const statealyzer::Result& cats) {
  std::ostringstream os;
  os << "sends[";
  for (const auto& s : path.sends) {
    os << "(";
    for (const auto& [f, v] : s.fields) {
      if (f == symex::kPayloadField) continue;
      // Identity fields don't distinguish actions.
      if (v->kind == symex::SymKind::kVar && v->str_val == "pkt." + f) continue;
      os << f << '=' << v->key() << ';';
    }
    os << ")@" << s.port->key();
  }
  os << "] state[";
  for (const auto& [var, v] : path.final_state) {
    if (!cats.is_ois(var)) continue;
    if (v->kind == symex::SymKind::kVar && v->str_val == var) continue;
    if (v->kind == symex::SymKind::kMapBase && v->str_val == var) continue;
    os << var << '=' << v->key() << ';';
  }
  os << ']';
  return os.str();
}

PathSetComparison compare_action_sets(const std::vector<symex::ExecPath>& a,
                                      const std::vector<symex::ExecPath>& b,
                                      const statealyzer::Result& cats) {
  std::set<std::string> sa;
  std::set<std::string> sb;
  for (const auto& p : a) {
    if (!p.truncated) sa.insert(action_signature(p, cats));
  }
  for (const auto& p : b) {
    if (!p.truncated) sb.insert(action_signature(p, cats));
  }
  PathSetComparison out;
  for (const auto& s : sa) {
    if (sb.count(s)) {
      ++out.common;
    } else {
      out.only_in_a.push_back(s);
    }
  }
  for (const auto& s : sb) {
    if (!sa.count(s)) out.only_in_b.push_back(s);
  }
  return out;
}

std::map<std::string, symex::SymRef> config_bindings(const ir::Module& m) {
  std::map<std::string, symex::SymRef> out;
  for (const auto& [name, v] : lint::config_env(m)) {
    using K = analysis::ConstVal::Kind;
    switch (v.kind) {
      case K::kInt: out[name] = symex::make_int(v.i); break;
      case K::kBool: out[name] = symex::make_bool(v.b); break;
      case K::kStr: out[name] = symex::make_str(v.s); break;
      default: break;
    }
  }
  return out;
}

PathSetComparison compare_action_sets_under_config(
    const std::vector<symex::ExecPath>& full,
    const std::vector<symex::ExecPath>& specialized,
    const statealyzer::Result& cats_full,
    const statealyzer::Result& cats_spec,
    const std::map<std::string, symex::SymRef>& bindings) {
  symex::Solver solver;
  std::set<std::string> sa;
  for (const symex::ExecPath& p : full) {
    if (p.truncated) continue;
    symex::ExecPath sub = p;
    bool infeasible = false;
    std::vector<symex::SymRef> live;
    for (auto& c : sub.constraints) {
      symex::SymRef s = symex::substitute(c, bindings);
      if (s->kind == symex::SymKind::kConstBool) {
        if (!s->bool_val) {
          infeasible = true;  // this arm only existed for other configs
          break;
        }
        continue;  // constant-true: no information
      }
      live.push_back(s);
    }
    if (infeasible || solver.check(live) == symex::SatResult::kUnsat) continue;
    sub.constraints = std::move(live);
    for (auto& s : sub.sends) {
      for (auto& [f, v] : s.fields) v = symex::substitute(v, bindings);
      s.port = symex::substitute(s.port, bindings);
    }
    for (auto& [var, v] : sub.final_state) {
      v = symex::substitute(v, bindings);
    }
    sa.insert(action_signature(sub, cats_full));
  }

  std::set<std::string> sb;
  for (const auto& p : specialized) {
    if (!p.truncated) sb.insert(action_signature(p, cats_spec));
  }

  PathSetComparison out;
  for (const auto& s : sa) {
    if (sb.count(s)) {
      ++out.common;
    } else {
      out.only_in_a.push_back(s);
    }
  }
  for (const auto& s : sb) {
    if (!sa.count(s)) out.only_in_b.push_back(s);
  }
  return out;
}

}  // namespace nfactor::verify
