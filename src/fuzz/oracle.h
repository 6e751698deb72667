// Differential equivalence oracle — the judgment half of the fuzzing
// subsystem (docs/fuzzing.md). One generated program is pushed through
// the synthesis pipeline under a matrix of configurations (simplify
// off/on × jobs 1/N) and each leg's synthesized model is differentially
// tested against the concrete runtime on a shared packet batch; on top
// of that the oracle checks path-partition exclusivity (every concrete
// packet satisfies exactly one non-truncated symbolic path) and that
// parallel SE stays byte-identical to serial SE.
//
// The third matrix axis from the issue — expression interning on/off —
// is a process-start environment toggle (NFACTOR_SYMEX_INTERN=0), so it
// cannot be flipped per leg in-process; CI runs the whole fuzz smoke
// under both settings instead (see .github/workflows/ci.yml fuzz-smoke).
#pragma once

#include <string>
#include <vector>

#include "netsim/packet.h"

namespace nfactor::fuzz {

enum class FailureClass : std::uint8_t {
  kNone,            ///< all legs agreed
  kFrontendReject,  ///< lexer/parser/sema/transform refused the program
  kCrash,           ///< pipeline or an interpreter threw unexpectedly
  kDivergence,      ///< model output != runtime output, or bad partition
  kCompiledDivergence,  ///< dataplane engine output != model interpreter
  kShardedDivergence,   ///< a shard's output != its reference engine
  kNondeterminism,  ///< legs that must agree byte-for-byte did not
};

std::string to_string(FailureClass c);

struct OracleOptions {
  int packets = 200;               ///< generated packets per program
  std::uint64_t packet_seed = 1;   ///< PacketGen seed (per-program mixed in)
  bool include_edge_packets = true;  ///< append PacketGen::edge_cases()
  std::vector<int> jobs_legs = {1, 4};  ///< SE worker widths to cross-check
  bool check_partition = true;
  int partition_packets = 50;      ///< packets sampled for the partition check
  /// Attach synthesis provenance to divergence reports: the implicated
  /// model entry and the source lines that produced it (nf-fuzz
  /// --provenance). Off by default — attribution replays the model
  /// interpreter on partition failures.
  bool attach_provenance = false;
  /// Compile each non-degraded leg's model (src/dataplane/) and replay
  /// the shared batch through the compiled engine beside the model
  /// interpreter; any disagreement in matched entry, emitted packets, or
  /// final oisVar state is a kCompiledDivergence. On by default — the
  /// dataplane compiler rides the same differential wall as everything
  /// else (nf-fuzz --no-compiled-leg to disable).
  bool compiled_leg = true;
  /// Run the baseline leg's model through ShardedDataplane at 2 and 3
  /// shards and hold every shard to its reference contract: verdicts,
  /// sends, and post-state byte-equal to a single engine fed that
  /// shard's packet subsequence. Valid for every generated program —
  /// including ones with global, non-flow-partitionable state — because
  /// the contract is per shard, not cross-shard (nf-fuzz
  /// --no-sharded-leg).
  bool sharded_leg = true;
};

struct OracleReport {
  FailureClass cls = FailureClass::kNone;
  std::string leg;     ///< failing leg, e.g. "simplify=on jobs=4"
  std::string detail;  ///< first mismatch / exception message
  /// True when any leg's symbolic execution degraded (path cap, timeout,
  /// truncation): the model may legitimately be partial there, so
  /// equivalence is not required and the program does not count as a
  /// failure — it is recorded so the fuzzer can report coverage honestly.
  bool degraded = false;
  /// ExecPath::signature() of every baseline-leg slice path — the
  /// branch-history coverage feedback the fuzzer steers generation with.
  std::vector<std::string> path_signatures;

  /// Provenance attachment (OracleOptions::attach_provenance, divergence
  /// reports only): the model entry whose rule the diverging packet
  /// matched (-1 = default drop), the source lines of the path that
  /// produced that rule, and a one-line summary naming them.
  int implicated_entry = -1;
  std::vector<int> implicated_lines;
  std::string implicated_summary;

  /// A verdict the fuzzer must act on (shrink + report).
  bool failed() const {
    return cls == FailureClass::kCrash || cls == FailureClass::kDivergence ||
           cls == FailureClass::kCompiledDivergence ||
           cls == FailureClass::kShardedDivergence ||
           cls == FailureClass::kNondeterminism;
  }
};

class DifferentialOracle {
 public:
  explicit DifferentialOracle(OracleOptions opts = {});

  /// Judge one program. Deterministic in (source, options).
  OracleReport run(const std::string& source) const;

  /// The shared concrete packet batch legs are tested on (exposed for
  /// tests asserting edge-value coverage).
  std::vector<netsim::Packet> packet_batch() const;

  const OracleOptions& options() const { return opts_; }

 private:
  OracleOptions opts_;
};

}  // namespace nfactor::fuzz
