// StateAlyzer-style variable categorization (paper §2.1 and Table 1).
// Features:
//   persistent       — lifetime longer than the packet loop (globals and
//                      init-section definitions);
//   top-level        — actually used during packet processing (appears in
//                      the per-packet body);
//   updateable       — assigned during packet processing;
//   output-impacting — appears in the backward slice of some packet
//                      output statement.
// Categories (Table 1):
//   pktVar — packet I/O function parameter/return value;
//   cfgVar — persistent, top-level, not updateable;
//   oisVar — persistent, top-level, updateable, output-impacting;
//   logVar — persistent, top-level, updateable, not output-impacting.
// NFactor's refinement over StateAlyzer: the analysis runs on the packet
// processing slice rather than the whole program (Algorithm 1, line 5).
#pragma once

#include <map>
#include <set>
#include <string>

#include "analysis/pdg.h"
#include "ir/ir.h"

namespace nfactor::statealyzer {

struct VarFeatures {
  bool persistent = false;
  bool top_level = false;
  bool updateable = false;
  bool output_impacting = false;
  bool is_packet = false;
};

enum class VarCategory : std::uint8_t {
  kPkt,     // the packet variable(s)
  kConfig,  // cfgVar
  kOis,     // output-impacting state
  kLog,     // log state
  kLocal,   // per-packet temporary
};

std::string to_string(VarCategory c);

struct Result {
  std::map<std::string, VarFeatures> features;
  std::map<std::string, VarCategory> category;

  std::set<std::string> pkt_vars;
  std::set<std::string> cfg_vars;
  std::set<std::string> ois_vars;
  std::set<std::string> log_vars;

  /// The packet-processing slice the classification ran on: union of
  /// backward slices from every send statement (Algorithm 1, lines 1-4).
  std::set<int> pkt_slice;

  bool is_ois(const std::string& v) const { return ois_vars.count(v) != 0; }
  bool is_cfg(const std::string& v) const { return cfg_vars.count(v) != 0; }
  bool is_pkt(const std::string& v) const { return pkt_vars.count(v) != 0; }

  /// Render the Table-1 style categorization.
  std::string to_table() const;
};

/// Run the categorization over a lowered module. `pdg` must be built on
/// `m.body`. When `state_slice` is given it receives the state-transition
/// slice (Algorithm 1, lines 6-9): the backward closure of every oisVar
/// update, which is the closure that decided output impact.
Result analyze(const ir::Module& m, const analysis::Pdg& pdg,
               std::set<int>* state_slice = nullptr);

}  // namespace nfactor::statealyzer
