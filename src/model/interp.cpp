#include "model/interp.h"

#include <stdexcept>

#include "runtime/interp.h"
#include "symex/concrete_eval.h"

namespace nfactor::model {

std::map<std::string, runtime::Value> initial_store(const ir::Module& m) {
  // The concrete runtime already knows how to evaluate global
  // initializers and the init section; borrow its work.
  runtime::Interpreter interp(m);
  std::map<std::string, runtime::Value> out;
  for (const auto& v : m.persistent) {
    if (const runtime::Value* val = interp.global(v)) out[v] = *val;
  }
  return out;
}

ModelInterpreter::ModelInterpreter(const Model& model,
                                   std::map<std::string, runtime::Value> store)
    : model_(model), store_(std::move(store)) {}

const runtime::Value* ModelInterpreter::state(const std::string& name) const {
  const auto it = store_.find(name);
  return it == store_.end() ? nullptr : &it->second;
}

void ModelInterpreter::set_state(const std::string& name, runtime::Value v) {
  store_[name] = std::move(v);
}

bool ModelInterpreter::entry_matches(const ModelEntry& e,
                                     const netsim::Packet& in) const {
  const symex::ConcreteEnv env = symex::store_env(store_, &in);
  try {
    for (const auto& c : e.config_match) {
      if (!symex::eval_concrete_bool(c, env)) return false;
    }
    for (const auto& c : e.flow_match) {
      if (!symex::eval_concrete_bool(c, env)) return false;
    }
    for (const auto& c : e.state_match) {
      if (!symex::eval_concrete_bool(c, env)) return false;
    }
  } catch (const std::exception&) {
    // A matching entry's conditions never throw (they were simultaneously
    // true on the source path); an exception means some other entry's
    // precondition is absent — not a match.
    return false;
  }
  return true;
}

ModelOutput ModelInterpreter::process(const netsim::Packet& in) {
  ModelOutput out;
  const symex::ConcreteEnv env = symex::store_env(store_, &in);

  for (std::size_t i = 0; i < model_.entries.size(); ++i) {
    const ModelEntry& e = model_.entries[i];
    if (!entry_matches(e, in)) continue;
    out.matched_entry = static_cast<int>(i);

    // Flow action.
    for (const auto& a : e.flow_action) {
      netsim::Packet p = in;
      for (const auto& [field, expr] : a.rewrites) {
        const runtime::Value v = symex::eval_concrete(expr, env);
        runtime::set_packet_field(p, field, v.as_int());
      }
      const runtime::Value port = symex::eval_concrete(a.port, env);
      out.sent.emplace_back(std::move(p), static_cast<int>(port.as_int()));
    }

    // State transition: evaluate all RHS against the pre-state, then
    // commit atomically.
    std::map<std::string, runtime::Value> updates;
    for (const auto& [var, expr] : e.state_action) {
      updates[var] = symex::eval_concrete(expr, env);
    }
    for (auto& [var, v] : updates) store_[var] = std::move(v);
    return out;  // entries are mutually exclusive; first match wins
  }
  return out;  // default: drop
}

}  // namespace nfactor::model
