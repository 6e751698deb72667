#include "ir/ir.h"

#include <sstream>

#include "lang/builtins.h"

namespace nfactor::ir {

using lang::Expr;

bool split_field_loc(const Location& loc, std::string* base, std::string* field) {
  const auto dot = loc.find('.');
  if (dot == std::string::npos) return false;
  if (base) *base = loc.substr(0, dot);
  if (field) *field = loc.substr(dot + 1);
  return true;
}

namespace {

Location make_loc(std::string_view var, std::string_view field) {
  Location loc(var);
  if (!field.empty()) {
    loc += '.';
    loc += field;
  }
  return loc;
}

bool names_loc(std::string_view loc, std::string_view var,
               std::string_view field) {
  if (field.empty()) return loc == var;
  return loc.size() == var.size() + 1 + field.size() && loc.starts_with(var) &&
         loc[var.size()] == '.' && loc.ends_with(field);
}

}  // namespace

void collect_uses(const Expr& e, std::set<Location>& out) {
  for_each_use(e, [&](std::string_view var, std::string_view field) {
    out.insert(make_loc(var, field));
  });
}

void collect_var_names(const Expr& e, std::set<std::string>& out) {
  for_each_use(e, [&](std::string_view var, std::string_view) {
    out.emplace(var);
  });
}

std::set<Location> Instr::uses() const {
  std::set<Location> out;
  for_each_use(*this, [&](std::string_view var, std::string_view field) {
    out.insert(make_loc(var, field));
  });
  return out;
}

std::set<Location> Instr::defs() const {
  std::set<Location> out;
  for_each_def(*this, [&](std::string_view var, std::string_view field, bool) {
    out.insert(make_loc(var, field));
  });
  return out;
}

bool Instr::is_strong_def(const Location& loc) const {
  bool strong = false;
  for_each_def(*this,
               [&](std::string_view var, std::string_view field, bool s) {
                 if (s && names_loc(loc, var, field)) strong = true;
               });
  return strong;
}

std::string to_string(InstrKind k) {
  switch (k) {
    case InstrKind::kEntry: return "entry";
    case InstrKind::kExit: return "exit";
    case InstrKind::kAssign: return "assign";
    case InstrKind::kFieldStore: return "fstore";
    case InstrKind::kIndexStore: return "istore";
    case InstrKind::kBranch: return "branch";
    case InstrKind::kSend: return "send";
    case InstrKind::kRecv: return "recv";
    case InstrKind::kCall: return "call";
  }
  return "?";
}

std::string Instr::to_string() const {
  std::ostringstream os;
  os << '%' << id << " [" << ir::to_string(kind) << "] ";
  switch (kind) {
    case InstrKind::kEntry:
    case InstrKind::kExit:
      break;
    case InstrKind::kAssign:
      os << var << " = " << lang::to_source(*value);
      break;
    case InstrKind::kFieldStore:
      os << var << '.' << field << " = " << lang::to_source(*value);
      break;
    case InstrKind::kIndexStore:
      os << var << '[' << lang::to_source(*index) << "] = "
         << lang::to_source(*value);
      break;
    case InstrKind::kBranch:
      os << "if " << lang::to_source(*value) << " -> %" << succs[0] << " / %"
         << succs[1];
      break;
    case InstrKind::kSend:
      os << "send(" << lang::to_source(*value) << ", " << lang::to_source(*aux)
         << ')';
      break;
    case InstrKind::kRecv:
      os << var << " = recv(" << (aux ? lang::to_source(*aux) : "?") << ')';
      break;
    case InstrKind::kCall: {
      if (!var.empty()) os << var << " = ";
      os << callee << '(';
      for (std::size_t i = 0; i < args.size(); ++i) {
        if (i) os << ", ";
        os << lang::to_source(*args[i]);
      }
      os << ')';
      break;
    }
  }
  if (kind != InstrKind::kBranch && !succs.empty()) {
    os << "  -> ";
    for (std::size_t i = 0; i < succs.size(); ++i) {
      if (i) os << ", ";
      os << '%' << succs[i];
    }
  }
  return os.str();
}

std::vector<int> Cfg::real_nodes() const {
  std::vector<int> out;
  for (const auto& n : nodes) {
    if (n->kind != InstrKind::kEntry && n->kind != InstrKind::kExit) {
      out.push_back(n->id);
    }
  }
  return out;
}

int Cfg::source_lines(const std::set<int>& ids) const {
  std::set<int> lines;
  for (int id : ids) {
    const Instr& n = node(id);
    if (n.kind == InstrKind::kEntry || n.kind == InstrKind::kExit) continue;
    if (n.loc.line > 0) lines.insert(n.loc.line);
  }
  return static_cast<int>(lines.size());
}

int Cfg::source_lines() const {
  std::set<int> all;
  for (int id : real_nodes()) all.insert(id);
  return source_lines(all);
}

std::string Cfg::dump() const {
  std::ostringstream os;
  for (const auto& n : nodes) os << n->to_string() << '\n';
  return os.str();
}

}  // namespace nfactor::ir
