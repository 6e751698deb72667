#include "obs/provenance.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <map>
#include <sstream>

#include "obs/json.h"

namespace nfactor::obs {

namespace {

/// "drop" / "send" / "2 sends", with "+state" when the rule writes
/// persistent state. Deterministic; used in listings and JSON.
std::string action_label(const model::ModelEntry& e) {
  std::string label;
  if (e.flow_action.empty()) {
    label = "drop";
  } else if (e.flow_action.size() == 1) {
    label = "send";
  } else {
    label = std::to_string(e.flow_action.size()) + " sends";
  }
  if (!e.state_action.empty()) label += "+state";
  return label;
}

std::vector<std::pair<int, int>> collapse_intervals(const std::vector<int>& lines) {
  std::vector<std::pair<int, int>> out;
  for (const int l : lines) {
    if (!out.empty() && out.back().second + 1 == l) {
      out.back().second = l;
    } else {
      out.emplace_back(l, l);
    }
  }
  return out;
}

std::string format_ms(std::uint64_t ns) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.3f", static_cast<double>(ns) / 1e6);
  return buf;
}

std::string render_intervals(const std::vector<std::pair<int, int>>& ivs) {
  std::string out;
  for (std::size_t i = 0; i < ivs.size(); ++i) {
    if (i) out += ",";
    out += std::to_string(ivs[i].first);
    if (ivs[i].second != ivs[i].first) out += "-" + std::to_string(ivs[i].second);
  }
  if (out.empty()) out = "-";
  return out;
}

}  // namespace

double ModelProvenance::solver_time_accounted() const {
  if (total_solver_ns == 0) return 1.0;
  std::uint64_t attributed = 0;
  for (const auto& r : rules) attributed += r.solver_ns;
  const double f = static_cast<double>(attributed) / static_cast<double>(total_solver_ns);
  return f > 1.0 ? 1.0 : f;
}

std::vector<int> ModelProvenance::rules_for_line(int line) const {
  std::vector<int> out;
  for (const auto& r : rules) {
    if (std::binary_search(r.lines.begin(), r.lines.end(), line)) out.push_back(r.entry);
  }
  return out;
}

ModelProvenance build_model_provenance(const ir::Module& module,
                                       const std::vector<symex::ExecPath>& paths,
                                       const model::Model& model,
                                       const symex::ExecStats* stats) {
  ModelProvenance prov;
  prov.nf = model.nf_name;
  if (stats != nullptr) {
    prov.total_solver_queries = stats->solver_queries;
    prov.total_solver_ns = stats->solver_ns;
    prov.total_exec_ns = static_cast<std::uint64_t>(stats->wall_ms * 1e6);
  }

  const std::size_t n = std::min(paths.size(), model.entries.size());
  prov.rules.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const symex::ExecPath& path = paths[i];
    const model::ModelEntry& entry = model.entries[i];
    RuleProvenance r;
    r.entry = static_cast<int>(i);
    r.truncated = path.truncated;
    r.decision_key = path.decision_key;
    r.action = action_label(entry);

    for (const auto& b : path.branches) {
      if (b.forked) r.fork_sites.push_back(b.node);
    }
    std::sort(r.fork_sites.begin(), r.fork_sites.end());
    r.fork_sites.erase(std::unique(r.fork_sites.begin(), r.fork_sites.end()),
                       r.fork_sites.end());

    // Node set -> (line, node) statements and source lines. Line 0 marks
    // synthesized instructions (entry/exit, lowering artifacts) — skip.
    for (const int id : path.nodes) {
      if (id < 0 || static_cast<std::size_t>(id) >= module.body.size()) continue;
      const int line = module.body.node(id).loc.line;
      if (line > 0) r.statements.emplace_back(line, id);
    }
    std::sort(r.statements.begin(), r.statements.end());
    for (const auto& [line, id] : r.statements) {
      (void)id;
      if (r.lines.empty() || r.lines.back() != line) r.lines.push_back(line);
    }
    r.intervals = collapse_intervals(r.lines);

    r.solver_queries = path.profile.solver_queries;
    r.solver_ns = path.profile.solver_ns;
    r.exec_ns = path.profile.exec_ns;

    // Per-branch-site solver ns -> per-source-line solver ns.
    std::map<int, std::uint64_t> by_line;
    for (const auto& [node, ns] : path.profile.branch_solver_ns) {
      if (node < 0 || static_cast<std::size_t>(node) >= module.body.size()) continue;
      const int line = module.body.node(node).loc.line;
      by_line[line > 0 ? line : 0] += ns;
    }
    r.line_solver_ns.assign(by_line.begin(), by_line.end());

    prov.rules.push_back(std::move(r));
  }
  return prov;
}

std::string to_json(const ModelProvenance& p, bool include_timing) {
  std::ostringstream os;
  os << "{\"schema\":\"nfactor-provenance-v1\",\"nf\":\"" << json_escape(p.nf)
     << "\",\"rules\":[";
  std::uint64_t attributed_queries = 0;
  for (std::size_t i = 0; i < p.rules.size(); ++i) {
    const RuleProvenance& r = p.rules[i];
    attributed_queries += r.solver_queries;
    if (i) os << ",";
    os << "{\"entry\":" << r.entry << ",\"action\":\"" << json_escape(r.action)
       << "\",\"truncated\":" << (r.truncated ? "true" : "false");
    os << ",\"decision_key\":[";
    for (std::size_t k = 0; k < r.decision_key.size(); ++k) {
      if (k) os << ",";
      os << r.decision_key[k];
    }
    os << "],\"fork_sites\":[";
    for (std::size_t k = 0; k < r.fork_sites.size(); ++k) {
      if (k) os << ",";
      os << r.fork_sites[k];
    }
    os << "],\"lines\":[";
    for (std::size_t k = 0; k < r.lines.size(); ++k) {
      if (k) os << ",";
      os << r.lines[k];
    }
    os << "],\"intervals\":[";
    for (std::size_t k = 0; k < r.intervals.size(); ++k) {
      if (k) os << ",";
      os << "[" << r.intervals[k].first << "," << r.intervals[k].second << "]";
    }
    os << "],\"solver_queries\":" << r.solver_queries;
    if (include_timing) {
      os << ",\"solver_ns\":" << r.solver_ns << ",\"exec_ns\":" << r.exec_ns;
      os << ",\"line_solver_ns\":[";
      for (std::size_t k = 0; k < r.line_solver_ns.size(); ++k) {
        if (k) os << ",";
        os << "[" << r.line_solver_ns[k].first << "," << r.line_solver_ns[k].second
           << "]";
      }
      os << "]";
    }
    os << "}";
  }
  // Totals restricted to pure functions of the per-rule records, so the
  // default export stays byte-stable even when the run-level counters
  // are schedule-dependent (path cap / timeout in play).
  os << "],\"totals\":{\"rules\":" << p.rules.size()
     << ",\"attributed_solver_queries\":" << attributed_queries;
  if (include_timing) {
    os << ",\"solver_queries\":" << p.total_solver_queries
       << ",\"solver_ns\":" << p.total_solver_ns
       << ",\"exec_ns\":" << p.total_exec_ns;
  }
  os << "}}\n";
  return os.str();
}

std::string to_folded(const ModelProvenance& p) {
  std::ostringstream os;
  const std::string nf = p.nf.empty() ? "nf" : p.nf;
  for (const RuleProvenance& r : p.rules) {
    const std::string stem = nf + ";entry " + std::to_string(r.entry) + ";";

    // Statement count per line — the shape weight, and the fallback
    // sample weight when the build carries no timing.
    std::map<int, std::uint64_t> counts;
    for (const auto& [line, id] : r.statements) {
      (void)id;
      ++counts[line];
    }
    std::uint64_t total_count = 0;
    for (const auto& [line, c] : counts) {
      (void)line;
      total_count += c;
    }

    // SE self time = continuation wall time minus its solver time,
    // distributed over the path's lines proportional to statement count.
    const std::uint64_t exec_self = r.exec_ns > r.solver_ns ? r.exec_ns - r.solver_ns : 0;
    for (const auto& [line, c] : counts) {
      std::uint64_t w = c;  // fallback: statement counts
      if (exec_self > 0 && total_count > 0) w = exec_self * c / total_count;
      if (w > 0) os << stem << "L" << line << " " << w << "\n";
    }
    for (const auto& [line, ns] : r.line_solver_ns) {
      if (ns == 0) continue;
      if (line > 0) {
        os << stem << "L" << line << ";solver " << ns << "\n";
      } else {
        os << stem << "solver " << ns << "\n";
      }
    }
  }
  return os.str();
}

namespace {

std::string explain_rule(const RuleProvenance& r, const ir::Module& module) {
  std::ostringstream os;
  os << "rule " << r.entry << " (" << r.action << (r.truncated ? ", truncated" : "")
     << ")\n";
  os << "  source lines: " << render_intervals(r.intervals) << "\n";
  os << "  decision key:";
  if (r.decision_key.empty()) os << " (unconditional)";
  for (std::size_t i = 0; i + 1 < r.decision_key.size(); i += 2) {
    os << " n" << r.decision_key[i] << (r.decision_key[i + 1] == 0 ? "+" : "-");
  }
  os << "\n";
  os << "  fork sites:";
  if (r.fork_sites.empty()) os << " (none)";
  for (const int n : r.fork_sites) os << " n" << n;
  os << "\n";
  os << "  solver: " << r.solver_queries << " queries";
  if (r.solver_ns > 0 || r.exec_ns > 0) {
    os << ", " << format_ms(r.solver_ns) << " ms solver / " << format_ms(r.exec_ns)
       << " ms path";
  }
  os << "\n";
  if (!r.line_solver_ns.empty()) {
    os << "  solver time by line:\n";
    for (const auto& [line, ns] : r.line_solver_ns) {
      os << "    ";
      if (line > 0) {
        os << "L" << line;
      } else {
        os << "(synthesized)";
      }
      os << ": " << format_ms(ns) << " ms\n";
    }
  }
  os << "  statements:\n";
  for (const auto& [line, id] : r.statements) {
    os << "    L" << line << ": " << module.body.node(id).to_string() << "\n";
  }
  return os.str();
}

std::string explain_all(const ModelProvenance& p) {
  std::ostringstream os;
  os << p.nf << ": " << p.rules.size() << " rules\n";
  std::uint64_t attributed_ns = 0;
  std::uint64_t attributed_queries = 0;
  for (const RuleProvenance& r : p.rules) {
    attributed_ns += r.solver_ns;
    attributed_queries += r.solver_queries;
    os << "  rule " << r.entry << ": " << r.action << "  lines "
       << render_intervals(r.intervals) << "  solver " << r.solver_queries << "q";
    if (p.total_solver_ns > 0) {
      const double pct = 100.0 * static_cast<double>(r.solver_ns) /
                         static_cast<double>(p.total_solver_ns);
      char buf[48];
      std::snprintf(buf, sizeof(buf), " %s ms (%.1f%%)", format_ms(r.solver_ns).c_str(),
                    pct);
      os << buf;
    }
    if (r.truncated) os << "  [truncated]";
    os << "\n";
  }
  os << "solver accounting: " << attributed_queries << "/" << p.total_solver_queries
     << " queries attributed";
  if (p.total_solver_ns > 0) {
    char buf[96];
    std::snprintf(buf, sizeof(buf), ", %s/%s ms (%.1f%%)",
                  format_ms(attributed_ns).c_str(), format_ms(p.total_solver_ns).c_str(),
                  100.0 * p.solver_time_accounted());
    os << buf;
  }
  os << "\n";
  return os.str();
}

}  // namespace

std::string explain(const ModelProvenance& p, const ir::Module& module,
                    const std::string& query) {
  if (query.empty() || query == "all") return explain_all(p);

  std::string q = query;
  bool is_line = false;
  if (q.size() > 1 && (q[0] == 'L' || q[0] == 'l') &&
      q.find_first_not_of("0123456789", 1) == std::string::npos) {
    is_line = true;
    q = q.substr(1);
  } else if (q.rfind("line:", 0) == 0) {
    is_line = true;
    q = q.substr(5);
  }
  if (q.empty() || q.find_first_not_of("0123456789") != std::string::npos) {
    return "explain: unknown query '" + query +
           "' (expected a rule index, L<line>, line:<line>, or nothing)\n";
  }
  const int n = std::stoi(q);

  if (is_line) {
    std::ostringstream os;
    const std::vector<int> hits = p.rules_for_line(n);
    os << "line " << n << ": " << hits.size() << " rule(s)\n";
    for (const int e : hits) {
      const RuleProvenance& r = p.rules[static_cast<std::size_t>(e)];
      os << "  rule " << e << ": " << r.action << "  lines "
         << render_intervals(r.intervals) << "\n";
    }
    return os.str();
  }

  if (n < 0 || static_cast<std::size_t>(n) >= p.rules.size()) {
    return "explain: rule " + q + " out of range (model has " +
           std::to_string(p.rules.size()) + " rules)\n";
  }
  return explain_rule(p.rules[static_cast<std::size_t>(n)], module);
}

}  // namespace nfactor::obs
