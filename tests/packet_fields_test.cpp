// The packet-field table (netsim::kPacketFields) against every layer that
// reads it: each row at 0 and at its maximum through the runtime's
// by-name accessors, the table's by-id read and raw load, a compiled
// dataplane match and the solver's width bounds. Each range must be what
// the packet holds: one past it wraps on a write and, for in_port, in a
// trace file.
#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "dataplane/engine.h"
#include "model/interp.h"
#include "netsim/packet.h"
#include "netsim/trace.h"
#include "runtime/value.h"
#include "symex/solver.h"

namespace nfactor {
namespace {

using lang::BinOp;
using netsim::FieldId;
using netsim::FieldSpec;

/// A packet whose field `f` holds `v`, set through the runtime when the
/// field is writable (and checked to be rejected when it is not).
netsim::Packet packet_with(const FieldSpec& f, runtime::Int v) {
  netsim::Packet p;
  const std::string name(f.name);
  if (f.writable) {
    runtime::set_packet_field(p, name, v);
    return p;
  }
  EXPECT_THROW(runtime::set_packet_field(p, name, v), std::invalid_argument)
      << name;
  if (f.id == FieldId::kLen) p.payload.assign(static_cast<std::size_t>(v), 0);
  if (f.id == FieldId::kInPort) p.in_port = static_cast<int>(v);
  return p;
}

/// The unsigned integer of f.width bytes at f.off, as threaded code loads it.
runtime::Int raw_load(const netsim::Packet& p, const FieldSpec& f) {
  const auto* at = reinterpret_cast<const unsigned char*>(&p) + f.off;
  std::uint16_t u16 = 0;
  std::uint32_t u32 = 0;
  switch (f.width) {
    case 1: return *at;
    case 2: std::memcpy(&u16, at, 2); return u16;
    default: std::memcpy(&u32, at, 4); return u32;
  }
}

/// Does the one-entry model "pkt.<f> == k -> send 1" match `p` in the
/// compiled dataplane? Checked against ModelInterpreter too.
bool dataplane_matches(const FieldSpec& f, runtime::Int k,
                       const netsim::Packet& p) {
  model::Model m;
  model::ModelEntry entry;
  entry.flow_match = {symex::make_bin(
      BinOp::kEq,
      symex::make_var("pkt." + std::string(f.name), symex::VarClass::kPkt),
      symex::make_int(k))};
  entry.flow_action.push_back(model::SendAction{{}, symex::make_int(1)});
  m.entries = {entry};
  dataplane::DataplaneEngine eng(dataplane::compile(m), {});
  model::ModelInterpreter mi(m, {});
  const bool hit = eng.process(p).matched_entry == 0;
  EXPECT_EQ(hit, mi.process(p).matched_entry == 0) << f.name << " == " << k;
  return hit;
}

/// The in_port values that survive a trace file (netsim/trace.h).
std::vector<int> trace_round_trip(const std::vector<int>& ports) {
  std::vector<netsim::Packet> packets(ports.size());
  for (std::size_t i = 0; i < ports.size(); ++i) {
    packets[i].in_port = ports[i];
  }
  const std::string path = ::testing::TempDir() + "/in_port_range.nftr";
  netsim::write_trace(path, packets);
  std::vector<int> out;
  for (const netsim::Packet& p : netsim::read_trace(path)) {
    out.push_back(p.in_port);
  }
  return out;
}

symex::SatResult check_eq(const FieldSpec& f, runtime::Int k) {
  symex::Solver s;
  return s.check({symex::make_bin(
      BinOp::kEq,
      symex::make_var("pkt." + std::string(f.name), symex::VarClass::kPkt),
      symex::make_int(k))});
}

TEST(PacketFieldTable, EveryLayerAgreesAtZeroAndMax) {
  ASSERT_EQ(netsim::kPacketFields.size(), 17u);
  for (const FieldSpec& f : netsim::kPacketFields) {
    const std::string name(f.name);
    SCOPED_TRACE(name);
    EXPECT_EQ(netsim::find_packet_field(name), &f);
    for (const runtime::Int v : {runtime::Int{0}, f.max}) {
      SCOPED_TRACE(v);
      const netsim::Packet p = packet_with(f, v);
      EXPECT_EQ(runtime::get_packet_field(p, name), v);
      EXPECT_EQ(netsim::read_field(p, f.id), v);
      if (f.width > 0) {
        EXPECT_EQ(raw_load(p, f), v);
      }
      for (const FieldSpec& g : netsim::kPacketFields) {  // no overlap
        if (g.id == f.id) continue;
        EXPECT_EQ(netsim::read_field(p, g.id),
                  netsim::read_field(netsim::Packet{}, g.id))
            << g.name;
      }
      EXPECT_TRUE(dataplane_matches(f, v, p));
      EXPECT_FALSE(dataplane_matches(f, v + 1, p));
    }
    EXPECT_EQ(check_eq(f, 0), symex::SatResult::kSat);
    EXPECT_EQ(check_eq(f, -1), symex::SatResult::kUnsat);
    EXPECT_EQ(check_eq(f, f.max), symex::SatResult::kSat);
    EXPECT_EQ(check_eq(f, f.max + 1), symex::SatResult::kUnsat);
    // The range is what the packet holds: one past the maximum wraps.
    if (f.writable) {
      netsim::Packet p;
      runtime::set_packet_field(p, name, f.max + 1);
      EXPECT_EQ(runtime::get_packet_field(p, name), 0);
    }
    // in_port's range is what a trace carries.
    if (f.id == FieldId::kInPort) {
      const int max = static_cast<int>(f.max);
      EXPECT_EQ(trace_round_trip({0, max, max + 1}),
                (std::vector<int>{0, max, 0}));
    }
  }
}

}  // namespace
}  // namespace nfactor
