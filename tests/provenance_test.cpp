// Tests for the synthesis-provenance subsystem (src/obs/provenance.h):
// per-rule source-line attribution, JSON schema and determinism across
// --jobs widths, folded-stack export format, solver-time accounting,
// and the model-bytes-unchanged guarantee.
#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <string>
#include <vector>

#include "netsim/packet_gen.h"
#include "nfactor/pipeline.h"
#include "nfs/corpus.h"
#include "obs/provenance.h"
#include "verify/equivalence.h"

namespace nfactor {
namespace {

pipeline::PipelineResult run_corpus_nf(const std::string& name, int jobs) {
  const auto& e = nfs::find(name);
  pipeline::PipelineOptions opts;
  opts.jobs = jobs;
  return pipeline::run_source(e.source, name, opts);
}

// Minimal structural JSON validity check (same approach as obs_test):
// enough to catch unbalanced brackets, dangling commas, bad escapes.
bool is_valid_json(const std::string& s) {
  std::vector<char> stack;
  bool in_str = false;
  bool esc = false;
  char prev = '\0';
  for (const char c : s) {
    if (in_str) {
      if (esc) {
        esc = false;
      } else if (c == '\\') {
        esc = true;
      } else if (c == '"') {
        in_str = false;
      }
      prev = c;
      continue;
    }
    switch (c) {
      case '"': in_str = true; break;
      case '{': stack.push_back('}'); break;
      case '[': stack.push_back(']'); break;
      case '}':
      case ']':
        if (stack.empty() || stack.back() != c || prev == ',') return false;
        stack.pop_back();
        break;
      default: break;
    }
    if (!std::isspace(static_cast<unsigned char>(c))) prev = c;
  }
  return !in_str && stack.empty();
}

// ---- structure of the record ---------------------------------------------

TEST(Provenance, OneRulePerModelEntryWithSourceLines) {
  const auto r = run_corpus_nf("snort_lite", 1);
  const obs::ModelProvenance& p = r.provenance;
  EXPECT_EQ(p.nf, "snort_lite");
  ASSERT_EQ(p.rules.size(), r.model.entries.size());
  for (std::size_t i = 0; i < p.rules.size(); ++i) {
    const obs::RuleProvenance& rule = p.rules[i];
    EXPECT_EQ(rule.entry, static_cast<int>(i));
    // Acceptance: every rule maps to at least one source line.
    EXPECT_FALSE(rule.lines.empty()) << "rule " << i << " has no lines";
    EXPECT_TRUE(std::is_sorted(rule.lines.begin(), rule.lines.end()));
    EXPECT_FALSE(rule.intervals.empty());
    // Intervals cover exactly the line set.
    std::vector<int> expanded;
    for (const auto& [lo, hi] : rule.intervals) {
      ASSERT_LE(lo, hi);
      for (int l = lo; l <= hi; ++l) expanded.push_back(l);
    }
    EXPECT_EQ(expanded, rule.lines);
    EXPECT_FALSE(rule.action.empty());
    // Decision key is (node, polarity) pairs.
    EXPECT_EQ(rule.decision_key.size() % 2, 0u);
    EXPECT_FALSE(rule.statements.empty());
  }
}

TEST(Provenance, ForkSitesAreBranchNodesOfThePath) {
  const auto r = run_corpus_nf("snort_lite", 1);
  ASSERT_EQ(r.provenance.rules.size(), r.slice_paths.size());
  for (std::size_t i = 0; i < r.slice_paths.size(); ++i) {
    const auto& rule = r.provenance.rules[i];
    EXPECT_TRUE(
        std::is_sorted(rule.fork_sites.begin(), rule.fork_sites.end()));
    for (const int n : rule.fork_sites) {
      EXPECT_TRUE(r.slice_paths[i].nodes.count(n))
          << "fork site n" << n << " not on path " << i;
    }
  }
}

TEST(Provenance, RulesForLineCrossReference) {
  const auto r = run_corpus_nf("snort_lite", 1);
  const obs::ModelProvenance& p = r.provenance;
  // The first line of the first rule must cross-reference back to it.
  ASSERT_FALSE(p.rules.empty());
  ASSERT_FALSE(p.rules[0].lines.empty());
  const int line = p.rules[0].lines[0];
  const auto hits = p.rules_for_line(line);
  EXPECT_TRUE(std::find(hits.begin(), hits.end(), 0) != hits.end());
  EXPECT_TRUE(p.rules_for_line(999999).empty());
}

// ---- exports --------------------------------------------------------------

TEST(Provenance, JsonExportIsValidAndCarriesSchema) {
  const auto r = run_corpus_nf("dpi", 1);
  const std::string json = obs::to_json(r.provenance);
  EXPECT_TRUE(is_valid_json(json)) << json;
  EXPECT_NE(json.find("\"schema\":\"nfactor-provenance-v1\""),
            std::string::npos);
  EXPECT_NE(json.find("\"decision_key\""), std::string::npos);
  EXPECT_NE(json.find("\"solver_queries\""), std::string::npos);
  // The deterministic export must not leak wall-clock fields.
  EXPECT_EQ(json.find("_ns"), std::string::npos);
  // The timing variant is also valid JSON and does carry them.
  const std::string timed = obs::to_json(r.provenance, /*include_timing=*/true);
  EXPECT_TRUE(is_valid_json(timed)) << timed;
  EXPECT_NE(timed.find("\"solver_ns\""), std::string::npos);
}

TEST(Provenance, FoldedExportIsRendererLoadable) {
  const auto r = run_corpus_nf("snort_lite", 1);
  const std::string folded = obs::to_folded(r.provenance);
  ASSERT_FALSE(folded.empty());
  // Collapsed-stack format: every line is "frame;frame;... <weight>" —
  // exactly what flamegraph.pl / speedscope / inferno consume.
  std::size_t start = 0;
  int checked = 0;
  while (start < folded.size()) {
    std::size_t end = folded.find('\n', start);
    if (end == std::string::npos) end = folded.size();
    const std::string line = folded.substr(start, end - start);
    start = end + 1;
    if (line.empty()) continue;
    const std::size_t sp = line.rfind(' ');
    ASSERT_NE(sp, std::string::npos) << line;
    const std::string stack = line.substr(0, sp);
    const std::string weight = line.substr(sp + 1);
    EXPECT_FALSE(weight.empty());
    EXPECT_EQ(weight.find_first_not_of("0123456789"), std::string::npos)
        << line;
    EXPECT_NE(stack.find(';'), std::string::npos) << line;
    EXPECT_EQ(stack.rfind("snort_lite;entry ", 0), 0u) << line;
    ++checked;
  }
  EXPECT_GT(checked, 0);
}

// ---- determinism and non-interference ------------------------------------

TEST(Provenance, JsonByteIdenticalAcrossJobsWidthsOnFullCorpus) {
  for (const auto& e : nfs::corpus()) {
    const std::string name(e.name);
    const auto r1 = run_corpus_nf(name, 1);
    const auto r4 = run_corpus_nf(name, 4);
    EXPECT_EQ(obs::to_json(r1.provenance), obs::to_json(r4.provenance))
        << "provenance JSON differs between jobs widths for " << name;
    // And collecting provenance never changes the model itself.
    EXPECT_EQ(model::to_text(r1.model), model::to_text(r4.model))
        << "model bytes differ between jobs widths for " << name;
  }
}

// ---- solver-effort attribution -------------------------------------------

TEST(Provenance, SolverTimeAccountingIsSane) {
  const auto r = run_corpus_nf("snort_lite", 1);
  const obs::ModelProvenance& p = r.provenance;
  const double accounted = p.solver_time_accounted();
  EXPECT_GE(accounted, 0.0);
  EXPECT_LE(accounted, 1.0);
#if NFACTOR_OBS_ENABLED
  // Acceptance: >= 95% of measured solver time lands on surviving rules
  // (the continuation-partition attribution is exact for a complete,
  // un-capped run like snort_lite).
  EXPECT_GT(p.total_solver_ns, 0u);
  EXPECT_GE(accounted, 0.95);
  std::uint64_t queries = 0;
  for (const auto& rule : p.rules) queries += rule.solver_queries;
  EXPECT_GT(queries, 0u);
  EXPECT_LE(queries, p.total_solver_queries);
#else
  // Kill switch off: the hot path collects nothing, the aggregation API
  // still works, and "nothing measured" reads as fully accounted.
  EXPECT_EQ(p.total_solver_ns, 0u);
  EXPECT_EQ(accounted, 1.0);
  for (const auto& rule : p.rules) {
    EXPECT_EQ(rule.solver_queries, 0u);
    EXPECT_EQ(rule.solver_ns, 0u);
    EXPECT_EQ(rule.exec_ns, 0u);
  }
#endif
}

// ---- divergence attribution (the oracle's raw material) -------------------

TEST(Provenance, DifferentialTestRecordsFirstMismatchEntry) {
  auto r = run_corpus_nf("l2_switch", 1);
  netsim::PacketGen pgen(7);
  auto packets = pgen.batch(100);
  const auto edges = netsim::PacketGen::edge_cases();
  packets.insert(packets.end(), edges.begin(), edges.end());

  // A healthy model records no mismatch info.
  const auto clean =
      verify::differential_test(*r.module, r.cats, r.model, packets);
  EXPECT_TRUE(clean.ok());
  EXPECT_FALSE(clean.has_first_mismatch);

  // Sabotage the model: turn every send rule into a drop. The first
  // diverging packet matches one of them, and the mismatch record must
  // name it so the oracle can hand its provenance (source lines) to
  // the fuzzer.
  model::Model broken = r.model;
  std::vector<int> sabotaged;
  for (std::size_t i = 0; i < broken.entries.size(); ++i) {
    if (!broken.entries[i].is_drop()) {
      sabotaged.push_back(static_cast<int>(i));
      broken.entries[i].flow_action.clear();
    }
  }
  ASSERT_FALSE(sabotaged.empty()) << "corpus NF lost its send rules";
  const auto diff =
      verify::differential_test(*r.module, r.cats, broken, packets);
  ASSERT_GT(diff.mismatches, 0)
      << "packet batch never hit a sabotaged rule";
  ASSERT_TRUE(diff.has_first_mismatch);
  EXPECT_TRUE(std::find(sabotaged.begin(), sabotaged.end(),
                        diff.first_mismatch_entry) != sabotaged.end())
      << "first mismatch names entry " << diff.first_mismatch_entry;
  EXPECT_FALSE(diff.first_mismatch_packet.empty());
  // And the named entry's provenance does carry source lines to report.
  const auto& rule =
      r.provenance.rules[static_cast<std::size_t>(diff.first_mismatch_entry)];
  EXPECT_FALSE(rule.lines.empty());
}

// ---- explain renderer ------------------------------------------------------

TEST(Provenance, ExplainListsEveryRuleAndAnswersQueries) {
  const auto r = run_corpus_nf("snort_lite", 1);
  const obs::ModelProvenance& p = r.provenance;

  const std::string all = obs::explain(p, *r.module);
  for (std::size_t i = 0; i < p.rules.size(); ++i) {
    EXPECT_NE(all.find("rule " + std::to_string(i) + ":"), std::string::npos);
  }
  EXPECT_NE(all.find("solver accounting:"), std::string::npos);

  const std::string one = obs::explain(p, *r.module, "0");
  EXPECT_NE(one.find("rule 0"), std::string::npos);
  EXPECT_NE(one.find("statements:"), std::string::npos);
  EXPECT_NE(one.find("decision key:"), std::string::npos);

  ASSERT_FALSE(p.rules[0].lines.empty());
  const std::string by_line =
      obs::explain(p, *r.module, "L" + std::to_string(p.rules[0].lines[0]));
  EXPECT_NE(by_line.find("rule 0"), std::string::npos);

  EXPECT_NE(obs::explain(p, *r.module, "99999").find("out of range"), std::string::npos);
  EXPECT_NE(obs::explain(p, *r.module, "bogus").find("unknown query"), std::string::npos);
}

// For every rule of every corpus NF, explain's statements block lists
// Instr::to_string() of the path's nodes that carry a source line, in
// (line, node) order.
TEST(Provenance, ExplainStatementsMatchThePathNodes) {
  for (const auto& e : nfs::corpus()) {
    const std::string name(e.name);
    const auto r = run_corpus_nf(name, 1);
    ASSERT_EQ(r.provenance.rules.size(), r.slice_paths.size()) << name;
    for (std::size_t i = 0; i < r.slice_paths.size(); ++i) {
      std::vector<std::pair<int, int>> line_nodes;
      for (const int id : r.slice_paths[i].nodes) {
        const int line = r.module->body.node(id).loc.line;
        if (line > 0) line_nodes.emplace_back(line, id);
      }
      std::sort(line_nodes.begin(), line_nodes.end());
      std::string expected = "  statements:\n";
      for (const auto& [line, id] : line_nodes) {
        expected += "    L" + std::to_string(line) + ": " +
                    r.module->body.node(id).to_string() + "\n";
      }
      const std::string out = obs::explain(r.provenance, *r.module, std::to_string(i));
      const std::size_t at = out.find("  statements:\n");
      ASSERT_NE(at, std::string::npos) << name << " rule " << i;
      EXPECT_EQ(out.substr(at), expected) << name << " rule " << i;
    }
  }
}

}  // namespace
}  // namespace nfactor
