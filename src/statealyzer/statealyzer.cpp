#include "statealyzer/statealyzer.h"

#include <algorithm>
#include <sstream>

#include "lang/lexer.h"
#include "obs/obs.h"

namespace nfactor::statealyzer {

std::string to_string(VarCategory c) {
  switch (c) {
    case VarCategory::kPkt: return "pktVar";
    case VarCategory::kConfig: return "cfgVar";
    case VarCategory::kOis: return "oisVar";
    case VarCategory::kLog: return "logVar";
    case VarCategory::kLocal: return "local";
  }
  return "?";
}

Result analyze(const ir::Module& m, const analysis::Pdg& pdg,
               std::set<int>* state_slice) {
  OBS_SPAN_VAR(span, "statealyzer.analyze");
  const ir::Cfg& body = m.body;
  const analysis::DefUse& du = pdg.def_use();
  Result r;

  // ---- Packet-processing slice: backward from every send (Alg.1 l.1-4).
  analysis::BackwardClosure pkt_closure(pdg);
  for (const auto& n : body.nodes) {
    if (n->kind == ir::InstrKind::kSend) pkt_closure.add(n->id);
  }
  r.pkt_slice = pkt_closure.finish();

  // ---- Body-level features, per variable id of the def/use table.
  // Globals and persistent variables the body never touches keep their
  // features by name.
  std::vector<VarFeatures> feats(static_cast<std::size_t>(du.num_vars()));
  auto persistent = [&](const std::string& v) {
    const int id = du.find_var(v);
    (id < 0 ? r.features[v] : feats[static_cast<std::size_t>(id)])
        .persistent = true;
  };
  for (const auto& g : m.globals) persistent(g.name);
  for (const auto& v : m.persistent) persistent(v);

  auto var_feats = [&](int loc) -> VarFeatures& {
    return feats[static_cast<std::size_t>(du.var_of(loc))];
  };
  for (const auto& n : body.nodes) {
    for (const int u : du.uses(n->id)) var_feats(u).top_level = true;
    for (int d = du.first_def(n->id); d < du.last_def(n->id); ++d) {
      VarFeatures& f = var_feats(du.def(d).loc);
      f.top_level = true;
      f.updateable = true;
    }
  }

  // ---- Packet variables: recv targets plus whole-packet aliases. An
  // alias assignment `q = p` reads exactly p and writes q.
  for (const auto& n : body.nodes) {
    if (n->kind == ir::InstrKind::kRecv) {
      var_feats(du.def(du.first_def(n->id)).loc).is_packet = true;
    }
  }
  bool grew = true;
  while (grew) {
    grew = false;
    for (const auto& n : body.nodes) {
      if (n->kind != ir::InstrKind::kAssign) continue;
      if (n->value->kind != lang::ExprKind::kVarRef) continue;
      if (!var_feats(du.uses(n->id)[0]).is_packet) continue;
      VarFeatures& dst = var_feats(du.def(du.first_def(n->id)).loc);
      if (!dst.is_packet) {
        dst.is_packet = true;
        grew = true;
      }
    }
  }

  // ---- Output-impacting: appears in the packet slice, or — transitively
  // over loop-carried state flow — in the backward slice of an update of
  // output-impacting state. The per-packet slice sees one iteration, so a
  // persistent var that only feeds an output-impacting var *across*
  // packets (st = f(m[...]) this packet, `st` gates a send on the next)
  // is invisible to it — yet the model's match conditions will mention
  // it, so the model must also maintain it. Found by differential fuzzing
  // (tests/fixtures/fuzz/repro_transitive_ois.nf): a map written this
  // packet and read into a send-gating scalar was classified logVar,
  // leaving the synthesized model matching on state it never updated.
  //
  // One closure grows to the fixed point: a variable that becomes
  // output-impacting and is oisVar state (persistent, updateable, not a
  // packet, not a lowering temporary) adds its defs as criteria, and
  // every node the closure reaches marks its variables. The finished
  // closure is the state-transition slice. Temporaries are never state
  // (init and body lowering each number them from 1, so a body temporary
  // can share an init temporary's name and look persistent). Leaving
  // them out adds no node: a temporary's one def is the kCall that lifts
  // `pop(q)`, and it turns output-impacting only when the closure holds
  // that kCall or a reader of it, whose reaching def is that kCall.
  std::vector<char> is_state(feats.size(), 0);
  for (std::size_t v = 0; v < feats.size(); ++v) {
    const VarFeatures& f = feats[v];
    is_state[v] = f.persistent && f.updateable && !f.is_packet &&
                  !lang::is_temporary(du.var_name(static_cast<int>(v)));
  }
  analysis::BackwardClosure state_closure(pdg);
  auto mark = [&](int loc) {
    const auto v = static_cast<std::size_t>(du.var_of(loc));
    if (feats[v].output_impacting) return;
    feats[v].output_impacting = true;
    if (!is_state[v]) return;
    for (const int d : du.defs_of_var(static_cast<int>(v))) {
      state_closure.add(du.def(d).node);
    }
  };
  auto mark_node = [&](int id) {
    for (const int u : du.uses(id)) mark(u);
    for (int d = du.first_def(id); d < du.last_def(id); ++d) {
      mark(du.def(d).loc);
    }
  };
  for (const int id : r.pkt_slice) mark_node(id);
  for (int id; (id = state_closure.next()) >= 0;) mark_node(id);
  std::set<int> state = state_closure.finish();
  if (state_slice != nullptr) *state_slice = std::move(state);

  // ---- Names once, in name order, so every map and set below is
  // appended at its end.
  std::vector<int> by_name(feats.size());
  for (std::size_t v = 0; v < feats.size(); ++v) by_name[v] = static_cast<int>(v);
  std::sort(by_name.begin(), by_name.end(), [&](int a, int b) {
    return du.var_name(a) < du.var_name(b);
  });
  for (const int v : by_name) {
    r.features.emplace_hint(r.features.end(), du.var_name(v),
                            feats[static_cast<std::size_t>(v)]);
  }

  // ---- Categorize (Table 1).
  for (const auto& [name, f] : r.features) {
    VarCategory c = VarCategory::kLocal;
    std::set<std::string>* vars = nullptr;
    if (lang::is_temporary(name)) {
      // temporaries stay local
    } else if (f.is_packet) {
      c = VarCategory::kPkt;
      vars = &r.pkt_vars;
    } else if (f.persistent && f.top_level && !f.updateable) {
      c = VarCategory::kConfig;
      vars = &r.cfg_vars;
    } else if (f.persistent && f.top_level && f.updateable &&
               f.output_impacting) {
      c = VarCategory::kOis;
      vars = &r.ois_vars;
    } else if (f.persistent && f.top_level && f.updateable) {
      c = VarCategory::kLog;
      vars = &r.log_vars;
    }
    r.category.emplace_hint(r.category.end(), name, c);
    if (vars != nullptr) vars->insert(vars->end(), name);
  }

  OBS_GAUGE("statealyzer.ois_vars", r.ois_vars.size());
  OBS_GAUGE("statealyzer.cfg_vars", r.cfg_vars.size());
  OBS_GAUGE("statealyzer.log_vars", r.log_vars.size());
  span.attr("ois", static_cast<std::int64_t>(r.ois_vars.size()));
  span.attr("cfg", static_cast<std::int64_t>(r.cfg_vars.size()));
  span.attr("log", static_cast<std::int64_t>(r.log_vars.size()));
  return r;
}

std::string Result::to_table() const {
  std::ostringstream os;
  auto row = [&](const char* label, const std::set<std::string>& vars) {
    os << label << ": ";
    bool first = true;
    for (const auto& v : vars) {
      if (!first) os << ", ";
      os << v;
      first = false;
    }
    os << '\n';
  };
  row("pktVar", pkt_vars);
  row("cfgVar", cfg_vars);
  row("oisVar", ois_vars);
  row("logVar", log_vars);
  return os.str();
}

}  // namespace nfactor::statealyzer
