// Concrete packet synthesis from symbolic match constraints. The
// ProbeBuilder inverts the constraint shapes synthesized models produce
// (field-vs-constant comparisons, TCP flag-mask tests, payload literals,
// small boolean combinations) into one concrete netsim::Packet that
// satisfies them — the shared substrate of BUZZ-style compliance test
// generation (verify/compliance.cpp) and topology witness
// materialization (verify/witness.cpp).
//
// The builder is best-effort by design: apply() returns false on shapes
// it cannot invert, and callers are expected to *verify* the finished
// packet by concretely evaluating the full constraint set — the builder
// proposes, eval_concrete disposes.
#pragma once

#include <optional>
#include <string>

#include "netsim/packet.h"
#include "runtime/value.h"
#include "symex/concrete_eval.h"
#include "symex/expr.h"

namespace nfactor::verify {

/// The packet field a bare "pkt.<field>" symbol refers to, if `e` is one.
std::optional<std::string> pkt_field_of(const symex::SymRef& e);

/// Evaluate an expression that should not depend on the packet; nullopt
/// when it throws or yields a non-scalar.
std::optional<runtime::Int> try_const(const symex::SymRef& e,
                                      const symex::ConcreteEnv& env);

class ProbeBuilder {
 public:
  /// `env` resolves state/config symbols appearing on the constant side
  /// of constraints (it is copied; the closures it holds must stay valid
  /// for the builder's lifetime).
  explicit ProbeBuilder(const symex::ConcreteEnv& env);

  netsim::Packet packet() const { return probe_; }

  /// Apply one match constraint; false = unsupported shape (the probe is
  /// left partially updated — callers must re-verify the full set).
  bool apply(const symex::SymRef& c, bool polarity = true);

  /// Set one field by DSL name; handles the pseudo-fields in_port/len.
  bool set_field(const std::string& field, runtime::Int v);

 private:
  netsim::Packet probe_;
  symex::ConcreteEnv env_;
};

}  // namespace nfactor::verify
