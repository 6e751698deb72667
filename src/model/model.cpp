#include "model/model.h"

#include <algorithm>
#include <sstream>
#include <unordered_map>
#include <unordered_set>

#include "obs/obs.h"
#include "symex/concrete_eval.h"

namespace nfactor::model {

namespace {

struct VarMix {
  bool pkt = false;
  bool state = false;
  bool cfg = false;
};

// The mix flags only ever accumulate, so skipping an already-visited
// shared subtree (deep store chains share almost everything) is exact —
// and keeps the walk linear in unique nodes.
void classify(const symex::SymRef& e, VarMix& mix,
              std::unordered_set<const symex::SymExpr*>& visited) {
  using symex::SymKind;
  if (!visited.insert(e.get()).second) return;
  if (e->kind == SymKind::kVar) {
    switch (e->var_class) {
      case symex::VarClass::kPkt: mix.pkt = true; break;
      case symex::VarClass::kState: mix.state = true; break;
      case symex::VarClass::kCfg: mix.cfg = true; break;
      case symex::VarClass::kLocal: break;
    }
  }
  if (e->kind == SymKind::kMapBase || e->kind == SymKind::kMapGet ||
      e->kind == SymKind::kMapStore) {
    mix.state = true;
  }
  for (const auto& c : e->operands) classify(c, mix, visited);
  for (const auto& [f, v] : e->fields) {
    (void)f;
    classify(v, mix, visited);
  }
}

bool is_identity_state(const std::string& var, const symex::SymRef& v) {
  using symex::SymKind;
  return (v->kind == SymKind::kVar && v->str_val == var) ||
         (v->kind == SymKind::kMapBase && v->str_val == var);
}

}  // namespace

std::string ModelEntry::config_key() const {
  std::set<std::string> keys;
  for (const auto& c : config_match) keys.insert(c->key());
  std::string out;
  for (const auto& k : keys) {
    out += k;
    out += '&';
  }
  return out;
}

std::vector<std::uint64_t> ModelEntry::config_identity() const {
  std::vector<std::uint64_t> fps;
  fps.reserve(config_match.size());
  for (const auto& c : config_match) fps.push_back(c->fp);
  std::sort(fps.begin(), fps.end());
  fps.erase(std::unique(fps.begin(), fps.end()), fps.end());
  return fps;
}

std::map<std::string, std::vector<const ModelEntry*>> Model::tables() const {
  // Group by the fingerprint identity (word compares), then label each
  // group with the rendered config_key — computed once per group, not
  // once per entry — so the returned map sorts exactly as it always has
  // and table output bytes are unchanged.
  struct IdHash {
    std::size_t operator()(const std::vector<std::uint64_t>& id) const {
      std::uint64_t h = 0xcbf29ce484222325ULL ^ id.size();
      for (const std::uint64_t fp : id) {
        h ^= fp;
        h *= 0x100000001b3ULL;
      }
      return static_cast<std::size_t>(h);
    }
  };
  std::unordered_map<std::vector<std::uint64_t>,
                     std::vector<const ModelEntry*>, IdHash>
      groups;
  for (const auto& e : entries) groups[e.config_identity()].push_back(&e);
  std::map<std::string, std::vector<const ModelEntry*>> out;
  for (auto& [id, group] : groups) {
    (void)id;
    auto& slot = out[group.front()->config_key()];
    if (slot.empty()) {
      slot = std::move(group);
    } else {
      // A fingerprint collision split what the rendered key considers
      // one table; merge back in entry order to match legacy grouping.
      slot.insert(slot.end(), group.begin(), group.end());
      std::sort(slot.begin(), slot.end(),
                [this](const ModelEntry* a, const ModelEntry* b) {
                  return a - &entries[0] < b - &entries[0];
                });
    }
  }
  return out;
}

Model build_model(const std::string& nf_name,
                  const std::vector<symex::ExecPath>& paths,
                  const statealyzer::Result& cats) {
  OBS_SPAN_VAR(span, "model.build");
  Model m;
  m.nf_name = nf_name;
  m.cfg_vars = cats.cfg_vars;
  m.ois_vars = cats.ois_vars;

  for (const auto& p : paths) {
    ModelEntry e;
    e.truncated = p.truncated;
    e.path_nodes = p.nodes;

    // Partition the condition conjunction (Algorithm 1, lines 12-14):
    //   cfg-only           -> configuration selector,
    //   packet (no state)  -> flow match,
    //   anything touching state -> state match (this is where the
    //   canonical "tuple in nat-map" membership predicates land).
    for (const auto& c : p.constraints) {
      VarMix mix;
      std::unordered_set<const symex::SymExpr*> visited;
      classify(c, mix, visited);
      if (mix.state) {
        e.state_match.push_back(c);
      } else if (mix.pkt) {
        e.flow_match.push_back(c);
      } else if (mix.cfg) {
        e.config_match.push_back(c);
      } else {
        e.flow_match.push_back(c);  // constant residue; keep visible
      }
      std::map<std::string, symex::VarClass> vars;
      symex::collect_vars(c, vars);
      for (const auto& [name, cls] : vars) {
        if (cls == symex::VarClass::kPkt) m.pkt_fields_read.insert(name);
      }
    }

    // Flow action (line 15, packet part): field rewrites per send.
    for (const auto& s : p.sends) {
      SendAction a;
      a.port = s.port;
      for (const auto& [field, v] : s.fields) {
        if (field == symex::kPayloadField) continue;
        const bool identity = v->kind == symex::SymKind::kVar &&
                              v->str_val == "pkt." + field;
        if (!identity) a.rewrites[field] = v;
      }
      e.flow_action.push_back(std::move(a));
    }

    // State action (line 15, state part): ois variables that changed.
    for (const auto& [var, v] : p.final_state) {
      if (!cats.is_ois(var)) continue;
      if (is_identity_state(var, v)) continue;
      e.state_action[var] = v;
    }

    m.entries.push_back(std::move(e));
  }
  OBS_COUNT_N("model.paths_refactored", paths.size());
  OBS_GAUGE("model.entries", m.entries.size());
  span.attr("entries", static_cast<std::int64_t>(m.entries.size()));
  return m;
}

namespace {

std::string join_conds(const std::vector<symex::SymRef>& cs) {
  if (cs.empty()) return "*";
  std::ostringstream os;
  for (std::size_t i = 0; i < cs.size(); ++i) {
    if (i) os << " && ";
    os << symex::to_string(*cs[i]);
  }
  return os.str();
}

std::string action_str(const ModelEntry& e) {
  if (e.is_drop()) return "drop";
  std::ostringstream os;
  for (std::size_t i = 0; i < e.flow_action.size(); ++i) {
    if (i) os << "; ";
    const auto& a = e.flow_action[i];
    os << "send(";
    bool first = true;
    for (const auto& [f, v] : a.rewrites) {
      if (!first) os << ", ";
      first = false;
      os << f << ":=" << symex::to_string(*v);
    }
    if (first) os << "pass";
    os << ") -> port " << symex::to_string(*a.port);
  }
  return os.str();
}

std::string state_action_str(const ModelEntry& e) {
  if (e.state_action.empty()) return "*";
  std::ostringstream os;
  bool first = true;
  for (const auto& [var, v] : e.state_action) {
    if (!first) os << "; ";
    first = false;
    os << var << " := " << symex::to_string(*v);
  }
  return os.str();
}

}  // namespace

std::string to_table(const Model& m) {
  std::ostringstream os;
  os << "NFactor model: " << m.nf_name << "\n";
  os << "=================================================================\n";
  for (const auto& [cfg, entries] : m.tables()) {
    os << "-- config: "
       << (entries.front()->config_match.empty()
               ? std::string("(any)")
               : join_conds(entries.front()->config_match))
       << " --\n";
    os << "  | Match(flow) | Match(state) | Action(flow) | Action(state) |\n";
    for (const ModelEntry* e : entries) {
      os << "  | " << join_conds(e->flow_match) << " | "
         << join_conds(e->state_match) << " | " << action_str(*e) << " | "
         << state_action_str(*e) << " |";
      if (e->truncated) os << "  (truncated)";
      os << "\n";
    }
  }
  os << "  | (default) | * | drop | * |\n";
  return os.str();
}

std::string to_text(const Model& m) {
  std::ostringstream os;
  for (std::size_t i = 0; i < m.entries.size(); ++i) {
    const auto& e = m.entries[i];
    os << "entry " << i << ":\n";
    os << "  config: " << join_conds(e.config_match) << "\n";
    os << "  flow:   " << join_conds(e.flow_match) << "\n";
    os << "  state:  " << join_conds(e.state_match) << "\n";
    os << "  action: " << action_str(e) << "\n";
    os << "  update: " << state_action_str(e) << "\n";
  }
  os << "default: drop\n";
  return os.str();
}

namespace {

void json_escape(std::ostringstream& os, const std::string& s) {
  os << '"';
  for (const char c : s) {
    switch (c) {
      case '"': os << "\\\""; break;
      case '\\': os << "\\\\"; break;
      case '\n': os << "\\n"; break;
      case '\t': os << "\\t"; break;
      default: os << c;
    }
  }
  os << '"';
}

void json_cond_array(std::ostringstream& os,
                     const std::vector<symex::SymRef>& cs) {
  os << '[';
  for (std::size_t i = 0; i < cs.size(); ++i) {
    if (i) os << ',';
    json_escape(os, symex::to_string(*cs[i]));
  }
  os << ']';
}

}  // namespace

std::string to_json(const Model& m) {
  std::ostringstream os;
  os << "{\n  \"nf\": ";
  json_escape(os, m.nf_name);
  os << ",\n  \"default_action\": \"drop\",\n  \"entries\": [\n";
  for (std::size_t i = 0; i < m.entries.size(); ++i) {
    const auto& e = m.entries[i];
    os << "    {\"config\": ";
    json_cond_array(os, e.config_match);
    os << ", \"flow_match\": ";
    json_cond_array(os, e.flow_match);
    os << ", \"state_match\": ";
    json_cond_array(os, e.state_match);
    os << ", \"actions\": [";
    for (std::size_t a = 0; a < e.flow_action.size(); ++a) {
      if (a) os << ',';
      os << "{\"rewrites\": {";
      bool first = true;
      for (const auto& [f, v] : e.flow_action[a].rewrites) {
        if (!first) os << ',';
        first = false;
        json_escape(os, f);
        os << ": ";
        json_escape(os, symex::to_string(*v));
      }
      os << "}, \"port\": ";
      json_escape(os, symex::to_string(*e.flow_action[a].port));
      os << '}';
    }
    os << "], \"state_update\": {";
    bool first = true;
    for (const auto& [var, v] : e.state_action) {
      if (!first) os << ',';
      first = false;
      json_escape(os, var);
      os << ": ";
      json_escape(os, symex::to_string(*v));
    }
    os << "}, \"truncated\": " << (e.truncated ? "true" : "false") << '}';
    os << (i + 1 < m.entries.size() ? ",\n" : "\n");
  }
  os << "  ]\n}\n";
  return os.str();
}

}  // namespace nfactor::model
