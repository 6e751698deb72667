#include "nfactor/pipeline.h"

#include "ir/lower.h"
#include "lang/parser.h"
#include "obs/obs.h"
#include "symex/intern.h"
#include "transform/normalize.h"

namespace nfactor::pipeline {

PipelineResult run(const lang::Program& prog, const PipelineOptions& opts) {
  // Stage timing *is* span duration: every StageTimes field below is
  // filled from Span::close_ms() of the stage's span, so the recorded
  // trace and the reported times cannot drift apart.
  obs::Tracer& tracer = obs::default_tracer();
  obs::Span total(tracer, "pipeline.run");
  total.attr("nf", prog.unit_name);
  PipelineResult r;

  // ---- Stage 0: structure normalization + lowering ----------------------
  {
    obs::Span sp(tracer, "pipeline.lower");
    r.module =
        std::make_unique<ir::Module>(ir::lower(transform::normalize(prog)));
    sp.attr("cfg_nodes", static_cast<std::int64_t>(r.module->body.size()));
    r.times.lower_ms = sp.close_ms();
  }

  // ---- Optional: IR simplification (constant folding + dead-arm
  //      pruning) ahead of slicing and symbolic execution --------------
  if (opts.simplify.enabled) {
    obs::Span sp(tracer, "pipeline.simplify");
    r.simplify_stats = lint::simplify_module(*r.module, opts.simplify);
    sp.attr("branches_pruned",
            static_cast<std::int64_t>(r.simplify_stats.branches_pruned));
    sp.attr("exprs_folded",
            static_cast<std::int64_t>(r.simplify_stats.exprs_folded));
    r.times.simplify_ms = sp.close_ms();
  }

  // ---- Stage 1+2: dependence graph, packet slice, categorization,
  //                 state slice (Algorithm 1, lines 1-9) -------------------
  {
    obs::Span sp(tracer, "pipeline.slice");
    r.pdg = std::make_unique<analysis::Pdg>(r.module->body);
    r.cats = statealyzer::analyze(*r.module, *r.pdg, &r.state_slice);
    r.pkt_slice = r.cats.pkt_slice;

    r.union_slice = r.pkt_slice;
    r.union_slice.insert(r.state_slice.begin(), r.state_slice.end());
    // The loop-head recv anchors every per-packet path.
    if (r.module->recv_port_node >= 0) {
      r.union_slice.insert(r.module->recv_port_node);
    }
    OBS_GAUGE("slice.pkt_nodes", r.pkt_slice.size());
    OBS_GAUGE("slice.state_nodes", r.state_slice.size());
    OBS_GAUGE("slice.union_nodes", r.union_slice.size());
    sp.attr("pkt_nodes", static_cast<std::int64_t>(r.pkt_slice.size()));
    sp.attr("state_nodes", static_cast<std::int64_t>(r.state_slice.size()));
    sp.attr("union_nodes", static_cast<std::int64_t>(r.union_slice.size()));
    r.times.slicing_ms = sp.close_ms();
  }

  // ---- Stage 3: symbolic execution of the slice (line 10) ---------------
  symex::SymbolicExecutor se(*r.module, r.cats);
  // One verdict memo for the whole pipeline: the orig-SE run replays most
  // of the slice run's branch conditions, so sharing the cache across the
  // two runs is where the big hit rates come from.
  symex::SolverCache solver_cache;
  {
    obs::Span sp(tracer, "pipeline.se_slice");
    symex::ExecOptions slice_opts = opts.se_slice;
    slice_opts.filter = &r.union_slice;
    if (opts.jobs > 0) slice_opts.jobs = opts.jobs;
    if (slice_opts.solver_cache == nullptr) {
      slice_opts.solver_cache = &solver_cache;
    }
    r.slice_paths = se.run(slice_opts, &r.slice_stats);
    sp.attr("paths", static_cast<std::int64_t>(r.slice_paths.size()));
    r.times.se_slice_ms = sp.close_ms();
  }

  // ---- Stage 4: refactor paths into the model (lines 11-16) -------------
  {
    obs::Span sp(tracer, "pipeline.model");
    r.model = model::build_model(r.module->name, r.slice_paths, r.cats);
    sp.attr("entries", static_cast<std::int64_t>(r.model.entries.size()));
    r.times.model_ms = sp.close_ms();
  }

  // Provenance aggregation rides on data the stages above already
  // computed (paths, model, CFG) and makes no solver query. It keeps
  // statements as (line, node id): rendering every node of every path
  // with Instr::to_string() here cost 0.55-0.77 ms per corpus pass,
  // 11-13% of this function, so obs::explain renders text only for the
  // rule it prints.
  r.provenance = obs::build_model_provenance(*r.module, r.slice_paths, r.model,
                                             &r.slice_stats);

  // ---- Optional: SE on the original program (Table 2 baseline) ----------
  if (opts.run_orig_se) {
    obs::Span sp(tracer, "pipeline.se_orig");
    symex::ExecOptions orig_opts = opts.se_orig;
    if (opts.jobs > 0) orig_opts.jobs = opts.jobs;
    if (orig_opts.solver_cache == nullptr) {
      orig_opts.solver_cache = &solver_cache;
    }
    r.orig_paths = se.run(orig_opts, &r.orig_stats);
    sp.attr("paths", static_cast<std::int64_t>(r.orig_paths.size()));
    r.times.se_orig_ms = sp.close_ms();
  }

  // ---- Metrics -----------------------------------------------------------
  r.loc_orig = r.module->body.source_lines();
  r.loc_slice = r.module->body.source_lines(r.union_slice);
  for (const auto& p : r.slice_paths) {
    if (p.truncated) continue;
    r.loc_path = std::max(r.loc_path, r.module->body.source_lines(p.nodes));
  }
  OBS_GAUGE("pipeline.loc_orig", r.loc_orig);
  OBS_GAUGE("pipeline.loc_slice", r.loc_slice);
  OBS_GAUGE("pipeline.loc_path", r.loc_path);

  {
    const auto cs = solver_cache.stats();
    OBS_GAUGE("pipeline.solver_cache.entries", solver_cache.size());
    const std::uint64_t lookups = cs.hits + cs.misses;
    if (lookups > 0) {
      OBS_GAUGE("pipeline.solver_cache.hit_rate",
                static_cast<double>(cs.hits) / static_cast<double>(lookups));
    }
  }

  r.times.total_ms = total.close_ms();

  // Mirror the interner counters accumulated by this run (deltas since
  // the last publish) into the registry — the intern hot path itself
  // never touches the registry mutex.
  symex::publish_intern_metrics();

  // Mirror the stage times into the registry so --metrics-out / bench
  // metric dumps carry the per-stage breakdown without the trace.
  OBS_GAUGE("pipeline.lower_ms", r.times.lower_ms);
  OBS_GAUGE("pipeline.simplify_ms", r.times.simplify_ms);
  OBS_GAUGE("pipeline.slicing_ms", r.times.slicing_ms);
  OBS_GAUGE("pipeline.se_slice_ms", r.times.se_slice_ms);
  OBS_GAUGE("pipeline.model_ms", r.times.model_ms);
  OBS_GAUGE("pipeline.se_orig_ms", r.times.se_orig_ms);
  OBS_GAUGE("pipeline.total_ms", r.times.total_ms);
  return r;
}

PipelineResult run_source(std::string_view source, std::string unit_name,
                          const PipelineOptions& opts) {
  try {
    return run(lang::parse(source, unit_name), opts);
  } catch (lang::FrontendError& e) {
    e.set_unit(unit_name);  // render as lint does: `unit:line:col: ...`
    throw;
  }
}

}  // namespace nfactor::pipeline
