// Benchmark-side spans: an obs::Tracer owned by the benchmark, opened around
// each call the benchmark makes into a layer's public API (parse,
// pipeline::run, compile, the engine constructor, run_query, ...). The
// spans live in the benchmark's files only, so the program under test is
// unchanged. When tracing is off a Scope is a null pointer and a branch.
//
// drain() folds completed spans into per-name totals and self times
// (a span's duration minus the part covered by its child spans) and keeps
// the first kKeptSpans records for the Chrome trace file.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "obs/tracer.h"

namespace perfbench {

struct SpanTotals {
  std::uint64_t count = 0;
  double total_ms = 0.0;
  double self_ms = 0.0;
};

class Spans {
 public:
  static constexpr std::size_t kKeptSpans = 20000;

  explicit Spans(bool enabled) : enabled_(enabled), tracer_(1 << 16) {}
  Spans(const Spans&) = delete;
  Spans& operator=(const Spans&) = delete;

  bool enabled() const { return enabled_; }
  void set_enabled(bool on) { enabled_ = on; }

  class Scope {
   public:
    Scope(nfactor::obs::Tracer* t, const char* name)
        : t_(t), token_(t != nullptr ? t->begin(name) : 0) {}
    ~Scope() {
      if (t_ != nullptr) t_->end(token_);
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    nfactor::obs::Tracer* t_;
    std::int64_t token_;
  };

  Scope scope(const char* name) {
    return Scope(enabled_ ? &tracer_ : nullptr, name);
  }

  /// Fold completed spans into totals. Call only between operations,
  /// when no span is open, so every drained tree is complete.
  void drain();

  const std::map<std::string, SpanTotals>& totals() const { return totals_; }

  /// Chrome trace_event JSON of the kept records.
  std::string chrome_json() const;

 private:
  bool enabled_;
  nfactor::obs::Tracer tracer_;
  std::map<std::string, SpanTotals> totals_;
  std::vector<nfactor::obs::SpanRecord> kept_;
};

/// Sets whether a Spans records for one scope, then restores it.
class SpansState {
 public:
  SpansState(Spans& s, bool on) : s_(s), was_(s.enabled()) { s_.set_enabled(on); }
  ~SpansState() { s_.set_enabled(was_); }
  SpansState(const SpansState&) = delete;
  SpansState& operator=(const SpansState&) = delete;

 private:
  Spans& s_;
  bool was_;
};

}  // namespace perfbench
