#include "lint/lint.h"

#include "analysis/const_prop.h"
#include "analysis/live_vars.h"
#include "analysis/pdg.h"
#include "ir/lower.h"
#include "lang/parser.h"
#include "lint/checks.h"
#include "lint/simplify.h"
#include "obs/obs.h"
#include "statealyzer/statealyzer.h"
#include "transform/normalize.h"

namespace nfactor::lint {

const std::vector<CheckInfo>& checks() {
  using lang::Severity;
  static const std::vector<CheckInfo> kChecks = {
      {"NF201", "use-before-init", Severity::kWarning,
       "non-persistent variable may be read before initialization"},
      {"NF202", "dead-store", Severity::kWarning,
       "assignment to a local that is never read"},
      {"NF203", "write-only-state", Severity::kWarning,
       "persistent variable written during packet processing but never read"},
      {"NF204", "unreachable-arm", Severity::kWarning,
       "branch arm unreachable under constant propagation (any config)"},
      {"NF205", "logvar-guard", Severity::kNote,
       "branch condition reads a logVar (possibly miscategorized state)"},
      {"NF206", "weak-update-shadow", Severity::kWarning,
       "container element store overwritten before any read"},
      {"NF207", "invalid-send-port", Severity::kWarning,
       "send() port folds to a constant outside 0..65535"},
      {"NF208", "duplicate-arm", Severity::kWarning,
       "branch re-tests a condition already decided on this path; one arm "
       "is unreachable"},
      {"NF301", "vacuous-model", Severity::kWarning,
       "NF never sends a packet; the synthesized model is vacuous"},
  };
  return kChecks;
}

void run_checks(const ir::Module& m, lang::DiagnosticSink& sink) {
  obs::Span sp(obs::default_tracer(), "lint.run_checks");
  sp.attr("nf", m.name);

  // One child span per analysis the checks read, and one for the checks.
  obs::Span deps(obs::default_tracer(), "lint.pdg");
  const analysis::Pdg pdg(m.body);
  const statealyzer::Result cats = statealyzer::analyze(m, pdg);
  deps.close_ms();

  obs::Span liveness(obs::default_tracer(), "lint.liveness");
  const analysis::LiveVars live(m.body);
  liveness.close_ms();

  // Config-agnostic lattice: every persistent is opaque (Bottom), so a
  // "dead" arm is dead for every possible configuration.
  obs::Span sccp(obs::default_tracer(), "lint.sccp");
  analysis::ConstEnv env_any;
  for (const auto& v : m.persistent) env_any[v] = analysis::ConstVal::bottom();
  for (const auto& g : m.globals) env_any[g.name] = analysis::ConstVal::bottom();
  const analysis::ConstProp cp(m.body, env_any);
  sccp.close_ms();

  // Config-specific lattice: config scalars take their initializer
  // constants (what simplify's fold_config uses).
  obs::Span sccp_cfg(obs::default_tracer(), "lint.sccp_config");
  analysis::ConstEnv env_cfg = std::move(env_any);
  for (auto& [k, v] : config_env(m)) env_cfg[k] = v;
  const analysis::ConstProp cp_cfg(m.body, std::move(env_cfg));
  sccp_cfg.close_ms();

  obs::Span checks_span(obs::default_tracer(), "lint.checks");
  const CheckContext ctx{m, pdg, cats, live, cp, cp_cfg, sink};
  check_use_before_init(ctx);
  check_dead_store(ctx);
  check_write_only_state(ctx);
  check_unreachable_arm(ctx);
  check_logvar_guard(ctx);
  check_weak_update_shadow(ctx);
  check_invalid_send_port(ctx);
  check_duplicate_arm(ctx);
  check_vacuous_model(ctx);
  checks_span.close_ms();

  OBS_GAUGE("lint.diags", sink.size());
  sp.attr("diags", static_cast<std::int64_t>(sink.size()));
}

bool lint_source(std::string_view source, const std::string& unit,
                 lang::DiagnosticSink& sink) {
  try {
    lang::Program prog = lang::parse(source, unit);
    lang::Program canon = transform::normalize(prog);
    const ir::Module m = ir::lower(std::move(canon));
    run_checks(m, sink);
    return true;
  } catch (const lang::LexError& e) {
    sink.report(e.diag().loc, lang::Severity::kError, "NF101",
                e.diag().message);
  } catch (const lang::DepthError& e) {
    sink.report(e.diag());  // NF105 or NF106
  } catch (const lang::ParseError& e) {
    sink.report(e.diag().loc, lang::Severity::kError, "NF102",
                e.diag().message);
  } catch (const lang::SemaError& e) {
    sink.report(e.diag().loc, lang::Severity::kError, "NF103",
                e.diag().message);
  } catch (const lang::FrontendError& e) {
    // LowerError, TransformError, and anything else structural.
    sink.report(e.diag().loc, lang::Severity::kError, "NF104",
                e.diag().message);
  }
  OBS_GAUGE("lint.diags", sink.size());
  return false;
}

}  // namespace nfactor::lint
