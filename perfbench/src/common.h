// Helpers shared by the workloads: timing, the production synthesis path
// (what nf-synth runs), and the per-item sample roll-up.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "dataplane/engine.h"
#include "nfactor/pipeline.h"
#include "spans.h"
#include "stats.h"
#include "workloads.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

/// A workload's time budget: Options::seconds of wall time from the
/// moment the workload starts, set-up and warm pass included, so a run
/// takes about --seconds on any machine. The timed loops stop at a share
/// of it, after a minimum number of operations; the inputs are the seed's
/// in the same order whatever the machine, only their count varies.
class Budget {
 public:
  explicit Budget(double seconds) : seconds_(seconds), start_(Clock::now()) {}
  /// Share of the budget used so far.
  double used() const {
    return std::chrono::duration<double>(Clock::now() - start_).count() / seconds_;
  }
  bool spent(double share = 1.0) const { return used() >= share; }

 private:
  double seconds_;
  Clock::time_point start_;
};

/// nf-synth's production settings: simplify + config folding, one SE
/// worker.
inline nfactor::pipeline::PipelineOptions production_options() {
  nfactor::pipeline::PipelineOptions opts;
  opts.simplify.enabled = true;
  opts.simplify.fold_config = true;
  opts.jobs = 1;
  return opts;
}

/// One NF taken from source text to a tier-2 engine, with the time each
/// public call took. Not movable once built: the engine borrows table.
struct Synthesized {
  nfactor::pipeline::PipelineResult r;
  std::map<std::string, nfactor::runtime::Value> store;
  nfactor::dataplane::CompiledTable table;
  std::unique_ptr<nfactor::dataplane::DataplaneEngine> engine;

  double parse_ms = 0.0;
  double compile_ms = 0.0;
  double engine_ms = 0.0;
  double total_ms = 0.0;
};

/// parse -> pipeline::run -> initial_store -> compile -> engine.
std::unique_ptr<Synthesized> synthesize(std::string_view name,
                                        std::string_view source, Spans& spans);

/// The set-up repetitions behind setup_s (their median), spread over the
/// run: repetition 0 runs before the warm pass and its products are the
/// ones measured; repetition j rebuilds everything once j/reps of the
/// timed loop's share of the budget is used, and is then discarded.
/// Spread out, the repetitions see the same machine conditions as the
/// timed blocks.
class SetupReps {
 public:
  /// `loop_share`: the share of the budget at which the timed loop ends.
  SetupReps(int reps, const Budget& budget, double loop_share)
      : reps_(static_cast<std::size_t>(reps < 1 ? 1 : reps)),
        budget_(budget),
        share_(loop_share) {}

  /// Run every repetition that is due by now (all of them once the loop
  /// has ended); `setup(rep)` builds everything, keeping it when rep == 0.
  template <typename F>
  void run_due(F&& setup) {
    const double used = budget_.used();
    while (next_ < reps_ &&
           (next_ == 0 || used >= share_ * static_cast<double>(next_) /
                                      static_cast<double>(reps_))) {
      const auto t0 = Clock::now();
      setup(static_cast<int>(next_));
      secs_.push_back(ms_between(t0, Clock::now()) / 1e3);
      ++next_;
    }
  }
  double median_s() const { return median(secs_); }

 private:
  std::size_t reps_;
  const Budget& budget_;
  double share_;
  std::size_t next_ = 0;
  std::vector<double> secs_;
};

/// Per-item operation times. In a traced run, rounds alternate between
/// spans on and off; the untraced rounds give the reported figures and
/// the traced ones the overhead.
struct ItemSamples {
  explicit ItemSamples(std::size_t items) : plain(items), traced(items) {}
  std::vector<std::vector<double>> plain;
  std::vector<std::vector<double>> traced;

  void add(std::size_t item, double ms, bool with_spans) {
    (with_spans ? traced : plain)[item].push_back(ms);
  }
  /// Fill the Report's timing fields from the untraced samples:
  /// op_ms_p50 is the quietest-block median (stats.h), run_p50 and
  /// run_tail cover the whole run. Traced runs also get the
  /// trace.overhead_pct layer metric.
  void summarize(Report& rep) const;
};

/// Peak resident set size (VmHWM) in MiB, 0 where procfs is missing.
/// Workloads read it after set-up and the warm pass, when the program's
/// memory is all in place and before the benchmark's own sample buffers,
/// which grow with the number of operations a run gets, add to it.
double peak_rss_mb();

/// Sum of the map entries held in an engine or interpreter store.
std::size_t map_entries(
    const std::map<std::string, nfactor::runtime::Value>& store);

}  // namespace perfbench
