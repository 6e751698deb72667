#include "fuzz/oracle.h"

#include <map>
#include <optional>
#include <span>
#include <sstream>
#include <stdexcept>

#include "dataplane/engine.h"
#include "dataplane/sharded.h"
#include "lang/diagnostics.h"
#include "model/interp.h"
#include "model/model.h"
#include "netsim/packet_gen.h"
#include "nfactor/pipeline.h"
#include "obs/obs.h"
#include "obs/provenance.h"
#include "runtime/interp.h"
#include "runtime/value.h"
#include "symex/concrete_eval.h"
#include "verify/equivalence.h"

namespace nfactor::fuzz {

std::string to_string(FailureClass c) {
  switch (c) {
    case FailureClass::kNone: return "ok";
    case FailureClass::kFrontendReject: return "frontend-reject";
    case FailureClass::kCrash: return "crash";
    case FailureClass::kDivergence: return "divergence";
    case FailureClass::kCompiledDivergence: return "compiled-divergence";
    case FailureClass::kShardedDivergence: return "sharded-divergence";
    case FailureClass::kNondeterminism: return "nondeterminism";
  }
  return "?";
}

namespace {

struct LegSpec {
  bool simplify = false;
  int jobs = 1;

  std::string name() const {
    return std::string("simplify=") + (simplify ? "on" : "off") +
           " jobs=" + std::to_string(jobs);
  }
};

/// Fill a report's implicated_* fields from the provenance of the model
/// entry that matched the diverging packet (-1 = default drop).
void attach_entry_provenance(OracleReport& report,
                             const obs::ModelProvenance& prov, int entry) {
  report.implicated_entry = entry;
  if (entry < 0 || static_cast<std::size_t>(entry) >= prov.rules.size()) {
    report.implicated_summary =
        "implicated: default drop (no model entry matched)";
    return;
  }
  const obs::RuleProvenance& rule = prov.rules[static_cast<std::size_t>(entry)];
  report.implicated_lines = rule.lines;
  std::ostringstream os;
  os << "implicated: rule " << entry << " (" << rule.action
     << ") from source lines ";
  for (std::size_t i = 0; i < rule.intervals.size(); ++i) {
    if (i) os << ",";
    os << rule.intervals[i].first;
    if (rule.intervals[i].second != rule.intervals[i].first) {
      os << "-" << rule.intervals[i].second;
    }
  }
  if (rule.intervals.empty()) os << "(none)";
  report.implicated_summary = os.str();
}

struct CompiledMismatch {
  std::string msg;
  int entry = -1;  ///< interpreter-side matched entry, for attribution
};

/// The compiled leg: lower the leg's model through the dataplane
/// compiler (with the same initial store the interpreter sees, so
/// config specialization is active) and replay the shared batch through
/// both backends in lockstep. They must agree on the matched entry,
/// every emitted packet and port, and — after the whole batch — the
/// final value of every output-impacting state variable.
std::optional<CompiledMismatch> check_compiled(
    const pipeline::PipelineResult& r,
    std::span<const netsim::Packet> packets) {
  const auto store = model::initial_store(*r.module);
  dataplane::CompileOptions copts;
  copts.bindings = &store;
  const dataplane::CompiledTable table = dataplane::compile(r.model, copts);
  model::ModelInterpreter mi(r.model, store);
  dataplane::DataplaneEngine eng(table, store);
  for (std::size_t k = 0; k < packets.size(); ++k) {
    const model::ModelOutput a = mi.process(packets[k]);
    const model::ModelOutput b = eng.process(packets[k]);
    const auto where = [&] {
      return " at packet " + std::to_string(k) + ": " +
             netsim::to_string(packets[k]);
    };
    if (a.matched_entry != b.matched_entry) {
      return CompiledMismatch{
          "compiled engine matched entry " + std::to_string(b.matched_entry) +
              ", interpreter matched " + std::to_string(a.matched_entry) +
              where(),
          a.matched_entry};
    }
    if (a.sent != b.sent) {
      return CompiledMismatch{"compiled engine output differs (entry " +
                                  std::to_string(a.matched_entry) + ")" +
                                  where(),
                              a.matched_entry};
    }
  }
  for (const std::string& v : r.model.ois_vars) {
    const runtime::Value* a = mi.state(v);
    const runtime::Value* b = eng.state(v);
    const bool same = (a == nullptr && b == nullptr) ||
                      (a != nullptr && b != nullptr && runtime::value_eq(*a, *b));
    if (!same) {
      return CompiledMismatch{"final state of '" + v +
                                  "' differs after the batch: interpreter " +
                                  (a ? runtime::to_string(*a) : "<absent>") +
                                  ", compiled " +
                                  (b ? runtime::to_string(*b) : "<absent>"),
                              -1};
    }
  }
  return std::nullopt;
}

/// The sharded leg: run the batch through ShardedDataplane at 2 and 3
/// shards and hold each shard to its reference contract — verdicts,
/// sends, and post-state byte-equal to a fresh single engine fed that
/// shard's packet subsequence in order. This is valid for every
/// generated program (global state included): a shard IS a single
/// engine over a sub-batch, so any disagreement is a real partition,
/// scatter, or worker-pool bug, never an artifact of non-partitionable
/// state.
std::optional<std::string> check_sharded(
    const pipeline::PipelineResult& r,
    std::span<const netsim::Packet> packets) {
  const auto store = model::initial_store(*r.module);
  dataplane::CompileOptions copts;
  copts.bindings = &store;
  const dataplane::CompiledTable table = dataplane::compile(r.model, copts);
  for (const int shards : {2, 3}) {
    dataplane::ShardOptions sopts;
    sopts.shards = shards;
    dataplane::ShardedDataplane sharded(table, store, sopts);
    dataplane::ShardedOutput out;
    sharded.execute_batch(packets, out);
    for (int s = 0; s < shards; ++s) {
      std::vector<netsim::Packet> sub;
      std::vector<std::size_t> sub_src;
      for (std::size_t i = 0; i < packets.size(); ++i) {
        if (out.shard_of[i] == s) {
          sub.push_back(packets[i]);
          sub_src.push_back(i);
        }
      }
      dataplane::DataplaneEngine ref(table, store);
      dataplane::BatchOutput rout;
      ref.execute_batch(sub, rout);
      const auto where = [&](std::size_t j) {
        return " (shards=" + std::to_string(shards) + " shard " +
               std::to_string(s) + " packet " + std::to_string(sub_src[j]) +
               ": " + netsim::to_string(sub[j]) + ")";
      };
      const auto& shard_out =
          out.shard_outputs()[static_cast<std::size_t>(s)];
      if (shard_out.matched.size() != sub.size()) {
        return "shard verdict count " + std::to_string(shard_out.matched.size()) +
               " != " + std::to_string(sub.size()) + " partitioned packets";
      }
      for (std::size_t j = 0; j < sub.size(); ++j) {
        if (shard_out.matched[j] != rout.matched[j] ||
            out.matched[sub_src[j]] != rout.matched[j]) {
          return "shard matched entry " + std::to_string(shard_out.matched[j]) +
                 ", reference matched " + std::to_string(rout.matched[j]) +
                 where(j);
        }
      }
      const auto rs = rout.sends();
      const auto ss = shard_out.sends();
      if (rs.size() != ss.size()) {
        return "shard emitted " + std::to_string(ss.size()) +
               " packets, reference emitted " + std::to_string(rs.size()) +
               " (shards=" + std::to_string(shards) + " shard " +
               std::to_string(s) + ")";
      }
      for (std::size_t j = 0; j < rs.size(); ++j) {
        const std::size_t src_j = static_cast<std::size_t>(rs[j].src);
        if (sub_src[src_j] != static_cast<std::size_t>(ss[j].src) ||
            rs[j].port != ss[j].port ||
            !(rs[j].packet() == ss[j].packet())) {
          return "shard send " + std::to_string(j) + " differs" + where(src_j);
        }
      }
      for (const std::string& v : r.model.ois_vars) {
        const runtime::Value* a = ref.state(v);
        const runtime::Value* b = sharded.engine(s).state(v);
        const bool same =
            (a == nullptr && b == nullptr) ||
            (a != nullptr && b != nullptr && runtime::value_eq(*a, *b));
        if (!same) {
          return "shard state of '" + v + "' differs from reference (shards=" +
                 std::to_string(shards) + " shard " + std::to_string(s) + ")";
        }
      }
    }
  }
  return std::nullopt;
}

struct PartitionError {
  std::string msg;
  int packet_index = -1;  ///< index into the shared batch
};

/// The partition check from the original property suite: every concrete
/// (packet, initial state) valuation must satisfy the constraints of
/// exactly one non-truncated symbolic path, and that path's send count
/// must predict the runtime's. Returns an error description or nullopt.
std::optional<PartitionError> check_partition(
    const pipeline::PipelineResult& r,
    std::span<const netsim::Packet> packets, int limit) {
  symex::SymbolicExecutor se(*r.module, r.cats);
  symex::ExecOptions opts;
  opts.jobs = 1;
  symex::ExecStats stats;
  const auto paths = se.run(opts, &stats);
  // A degraded whole-program run may genuinely miss regions of the input
  // space; exactness is only required of a complete path set.
  const bool complete = !pipeline::PipelineResult::se_degraded(stats);

  const auto store = model::initial_store(*r.module);
  int n = 0;
  for (const auto& pkt : packets) {
    if (++n > limit) break;
    const symex::ConcreteEnv env = symex::store_env(store, &pkt);

    int sat_paths = 0;
    std::size_t sat_sends = 0;
    for (const auto& p : paths) {
      if (p.truncated) continue;
      bool sat = true;
      try {
        for (const auto& c : p.constraints) {
          if (!symex::eval_concrete_bool(c, env)) {
            sat = false;
            break;
          }
        }
      } catch (const std::exception&) {
        sat = false;
      }
      if (sat) {
        ++sat_paths;
        sat_sends = p.sends.size();
      }
    }
    if (sat_paths > 1 || (complete && sat_paths != 1)) {
      return PartitionError{"packet satisfies " + std::to_string(sat_paths) +
                                " paths (want 1): " + netsim::to_string(pkt),
                            n - 1};
    }
    if (sat_paths == 1) {
      runtime::Interpreter interp(*r.module);
      const auto out = interp.process(pkt);
      if (out.sent.size() != sat_sends) {
        return PartitionError{
            "satisfied path predicts " + std::to_string(sat_sends) +
                " sends, runtime sent " + std::to_string(out.sent.size()) +
                ": " + netsim::to_string(pkt),
            n - 1};
      }
    }
  }
  return std::nullopt;
}

}  // namespace

DifferentialOracle::DifferentialOracle(OracleOptions opts)
    : opts_(std::move(opts)) {}

std::vector<netsim::Packet> DifferentialOracle::packet_batch() const {
  netsim::GenConfig cfg;
  cfg.udp_fraction = 0.3;
  netsim::PacketGen pgen(opts_.packet_seed, cfg);
  auto packets = pgen.batch(opts_.packets);
  if (opts_.include_edge_packets) {
    const auto edges = netsim::PacketGen::edge_cases();
    packets.insert(packets.end(), edges.begin(), edges.end());
  }
  return packets;
}

OracleReport DifferentialOracle::run(const std::string& source) const {
  OBS_SPAN("fuzz.oracle");
  OracleReport report;
  const auto packets = packet_batch();

  std::vector<LegSpec> legs;
  for (const bool simplify : {false, true}) {
    for (const int jobs : opts_.jobs_legs) {
      legs.push_back(LegSpec{simplify, jobs});
    }
  }

  // Model renderings per (simplify, jobs) — legs that differ only in
  // jobs promise byte-identical models (src/symex/executor.h).
  std::map<std::pair<bool, int>, std::string> model_text;
  std::optional<pipeline::PipelineResult> baseline;  // simplify=off, jobs=1

  for (const LegSpec& leg : legs) {
    pipeline::PipelineOptions popts;
    popts.simplify.enabled = leg.simplify;
    popts.simplify.fold_config = leg.simplify;
    popts.jobs = leg.jobs;

    pipeline::PipelineResult r;
    try {
      r = pipeline::run_source(source, "fuzz", popts);
    } catch (const lang::FrontendError& e) {
      // Parse/sema/transform run before any leg option applies, so a
      // reject is leg-independent: classify and stop.
      report.cls = FailureClass::kFrontendReject;
      report.leg = leg.name();
      report.detail = e.what();
      return report;
    } catch (const std::exception& e) {
      report.cls = FailureClass::kCrash;
      report.leg = leg.name();
      report.detail = std::string("pipeline: ") + e.what();
      return report;
    }

    const bool leg_degraded = r.degraded();
    report.degraded = report.degraded || leg_degraded;

    if (!leg_degraded) {
      try {
        const auto diff =
            verify::differential_test(*r.module, r.cats, r.model, packets);
        if (diff.mismatches != 0) {
          report.cls = FailureClass::kDivergence;
          report.leg = leg.name();
          report.detail = diff.details.empty()
                              ? std::to_string(diff.mismatches) + " mismatches"
                              : diff.details[0];
          if (opts_.attach_provenance && diff.has_first_mismatch) {
            attach_entry_provenance(report, r.provenance,
                                    diff.first_mismatch_entry);
          }
          return report;
        }
      } catch (const std::exception& e) {
        report.cls = FailureClass::kCrash;
        report.leg = leg.name();
        report.detail = std::string("interpreter: ") + e.what();
        return report;
      }
      if (opts_.compiled_leg) {
        try {
          if (auto mm = check_compiled(r, packets)) {
            report.cls = FailureClass::kCompiledDivergence;
            report.leg = leg.name() + " compiled";
            report.detail = mm->msg;
            if (opts_.attach_provenance) {
              attach_entry_provenance(report, r.provenance, mm->entry);
            }
            return report;
          }
        } catch (const std::exception& e) {
          report.cls = FailureClass::kCrash;
          report.leg = leg.name() + " compiled";
          report.detail = std::string("compiled: ") + e.what();
          return report;
        }
      }
      if (opts_.sharded_leg && !leg.simplify && leg.jobs == 1) {
        try {
          if (auto err = check_sharded(r, packets)) {
            report.cls = FailureClass::kShardedDivergence;
            report.leg = "sharded";
            report.detail = *err;
            return report;
          }
        } catch (const std::exception& e) {
          report.cls = FailureClass::kCrash;
          report.leg = "sharded";
          report.detail = std::string("sharded: ") + e.what();
          return report;
        }
      }
    }

    model_text[{leg.simplify, leg.jobs}] = model::to_text(r.model);
    if (!leg.simplify && leg.jobs == 1) baseline = std::move(r);
  }

  // Parallel SE must not change the model at either simplify setting.
  for (const bool simplify : {false, true}) {
    const auto first = model_text.find({simplify, opts_.jobs_legs.front()});
    for (const int jobs : opts_.jobs_legs) {
      const auto it = model_text.find({simplify, jobs});
      if (it != model_text.end() && first != model_text.end() &&
          it->second != first->second) {
        report.cls = FailureClass::kNondeterminism;
        report.leg = LegSpec{simplify, jobs}.name();
        report.detail = "model differs from jobs=" +
                        std::to_string(opts_.jobs_legs.front()) + " leg";
        return report;
      }
    }
  }

  if (baseline) {
    for (const auto& p : baseline->slice_paths) {
      report.path_signatures.push_back(p.signature());
    }
    if (opts_.check_partition) {
      try {
        if (auto err = check_partition(*baseline, packets,
                                       opts_.partition_packets)) {
          report.cls = FailureClass::kDivergence;
          report.leg = "partition";
          report.detail = err->msg;
          if (opts_.attach_provenance && err->packet_index >= 0) {
            // Replay the (stateful) model interpreter up to the
            // offending packet to learn which rule it lands on.
            try {
              model::ModelInterpreter mi(baseline->model,
                                         model::initial_store(*baseline->module));
              model::ModelOutput mo;
              for (int k = 0; k <= err->packet_index &&
                              k < static_cast<int>(packets.size());
                   ++k) {
                mo = mi.process(packets[static_cast<std::size_t>(k)]);
              }
              attach_entry_provenance(report, baseline->provenance,
                                      mo.matched_entry);
            } catch (const std::exception&) {
              // Attribution is best-effort; the divergence verdict stands.
            }
          }
          return report;
        }
      } catch (const std::exception& e) {
        report.cls = FailureClass::kCrash;
        report.leg = "partition";
        report.detail = e.what();
        return report;
      }
    }
  }
  return report;
}

}  // namespace nfactor::fuzz
