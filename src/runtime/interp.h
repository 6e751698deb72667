// Concrete interpreter for lowered NF modules: runs the *original*
// program on real packets. Used by the accuracy experiment (differential
// testing against the synthesized model, §5), by dynamic slicing (trace
// recording), and as the reference semantics for every other component.
#pragma once

#include <stdexcept>
#include <string>
#include <unordered_map>
#include <vector>

#include "analysis/dynamic_slice.h"
#include "ir/ir.h"
#include "netsim/packet.h"
#include "runtime/value.h"

namespace nfactor::runtime {

class RuntimeError : public std::runtime_error {
 public:
  RuntimeError(lang::SourceLoc loc, const std::string& msg)
      : std::runtime_error(std::to_string(loc.line) + ":" +
                           std::to_string(loc.col) + ": " + msg) {}
};

/// One processed packet's externally visible result.
struct Output {
  /// Packets emitted by send(), with their output ports, in order.
  std::vector<std::pair<netsim::Packet, int>> sent;
  bool dropped() const { return sent.empty(); }  // §3.2: default action
};

class Interpreter {
 public:
  explicit Interpreter(const ir::Module& m);

  /// Re-initialize: evaluate global initializers, run the init CFG.
  void reset();

  /// Process one packet through the per-packet body.
  Output process(const netsim::Packet& in);

  /// Persistent store access (tests & differential checks).
  const Value* global(const std::string& name) const;
  void set_global(const std::string& name, Value v);

  /// Record a dynamic trace of the next process() calls.
  void enable_trace(bool on) { tracing_ = on; }
  const analysis::Trace& trace() const { return trace_; }
  void clear_trace() { trace_.clear(); }

  /// Log lines captured from log() calls.
  const std::vector<std::string>& log_lines() const { return log_; }

  /// Safety valve for runaway loops inside one packet's processing.
  void set_step_limit(std::size_t n) { step_limit_ = n; }

 private:
  Value eval(const lang::Expr& e);
  Value eval_call(const lang::Call& c);
  Value& lvalue(const std::string& var, lang::SourceLoc loc);
  Value lookup(const std::string& var, lang::SourceLoc loc);
  void run_cfg(const ir::Cfg& cfg, Output* out, bool is_body);
  void record_event(const ir::Instr& n);

  const ir::Module& m_;
  netsim::Packet pending_input_;  // bound by the body's kRecv node
  std::unordered_map<std::string, Value> persistent_;
  std::unordered_map<std::string, Value> locals_;  // per-packet
  Output* cur_out_ = nullptr;

  bool tracing_ = false;
  analysis::Trace trace_;
  std::unordered_map<ir::Location, int> last_def_;  // location -> trace idx

  std::vector<std::string> log_;
  std::size_t step_limit_ = 1u << 20;
};

}  // namespace nfactor::runtime
