// Diagnostics shared by the frontend and the lint engine. Errors carry a
// source location and are thrown as LexError / ParseError / SemaError;
// callers that want to accumulate (the lint driver, IDE-style tooling)
// use a DiagnosticSink, which collects diagnostics with a severity and a
// stable check code and renders them as text or JSON.
#pragma once

#include <algorithm>
#include <array>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "lang/token.h"

namespace nfactor::lang {

enum class Severity : std::uint8_t { kNote, kWarning, kError };

inline std::string to_string(Severity s) {
  switch (s) {
    case Severity::kNote: return "note";
    case Severity::kWarning: return "warning";
    case Severity::kError: return "error";
  }
  return "?";
}

/// A single diagnostic. `code` is the stable check identifier (NF1xx
/// frontend, NF2xx dataflow, NF3xx model-level; docs/lint.md has the
/// catalog); empty for ad-hoc frontend errors.
struct Diagnostic {
  SourceLoc loc;
  std::string message;
  Severity severity = Severity::kError;
  std::string code;

  /// `unit:line:col: severity: CODE: message` (code part omitted when
  /// empty, matching the historical frontend-error rendering).
  std::string render(const std::string& unit = "<input>") const {
    std::string out = unit + ":" + std::to_string(loc.line) + ":" +
                      std::to_string(loc.col) + ": ";
    if (!code.empty()) {
      out += to_string(severity) + ": " + code + ": ";
    }
    return out + message;
  }
};

/// Accumulates diagnostics (frontend + lint share this type). Stable
/// insertion order is preserved; renderers sort by source location so
/// golden output does not depend on check execution order.
class DiagnosticSink {
 public:
  void report(Diagnostic d) {
    counts_[static_cast<std::size_t>(d.severity)]++;
    diags_.push_back(std::move(d));
  }
  void report(SourceLoc loc, Severity sev, std::string code,
              std::string message) {
    report(Diagnostic{loc, std::move(message), sev, std::move(code)});
  }

  const std::vector<Diagnostic>& diagnostics() const { return diags_; }
  std::size_t size() const { return diags_.size(); }
  bool empty() const { return diags_.empty(); }

  int notes() const { return counts_[0]; }
  int warnings() const { return counts_[1]; }
  int errors() const { return counts_[2]; }
  bool has_errors() const { return errors() > 0; }

  /// One rendered diagnostic per line, ordered by source location
  /// (then code), followed by nothing — callers append their own summary.
  std::string render_text(const std::string& unit = "<input>") const {
    std::string out;
    for (const Diagnostic* d : ordered()) {
      out += d->render(unit);
      out += '\n';
    }
    return out;
  }

  /// Machine-readable form:
  ///   {"unit": ..., "diagnostics": [{line,col,severity,code,message}...],
  ///    "counts": {"note":N,"warning":N,"error":N}}
  std::string render_json(const std::string& unit = "<input>") const;

 private:
  std::vector<const Diagnostic*> ordered() const {
    std::vector<const Diagnostic*> v;
    v.reserve(diags_.size());
    for (const auto& d : diags_) v.push_back(&d);
    std::stable_sort(v.begin(), v.end(),
                     [](const Diagnostic* a, const Diagnostic* b) {
                       if (a->loc.line != b->loc.line)
                         return a->loc.line < b->loc.line;
                       if (a->loc.col != b->loc.col) return a->loc.col < b->loc.col;
                       return a->code < b->code;
                     });
    return v;
  }

  std::vector<Diagnostic> diags_;
  std::array<int, 3> counts_{};
};

class FrontendError : public std::runtime_error {
 public:
  FrontendError(SourceLoc loc, const std::string& msg, std::string code = {})
      : std::runtime_error(msg),
        diag_{loc, msg, Severity::kError, std::move(code)},
        what_(diag_.render()) {}
  const Diagnostic& diag() const { return diag_; }

  /// Names the source unit in what(). The lexer, sema and lowering do
  /// not know it, so the caller that does sets it before rethrowing.
  void set_unit(const std::string& unit) { what_ = diag_.render(unit); }
  const char* what() const noexcept override { return what_.c_str(); }

 private:
  Diagnostic diag_;
  std::string what_;
};

class LexError : public FrontendError {
  using FrontendError::FrontendError;
};
class ParseError : public FrontendError {
  using FrontendError::FrontendError;
};
class SemaError : public FrontendError {
  using FrontendError::FrontendError;
};
/// A construct nested past one of the parser's depth limits: an
/// expression (NF105) or a statement (NF106). Parse, sema and lowering
/// recurse on both, and SE on expressions.
class DepthError : public ParseError {
 public:
  DepthError(SourceLoc loc, const std::string& msg, std::string code)
      : ParseError(loc, msg, std::move(code)) {}
};

}  // namespace nfactor::lang
