// Shared helpers for the NFactor test suite.
#pragma once

#include <ostream>
#include <string>

#include "ir/lower.h"
#include "lang/parser.h"
#include "lang/sema.h"
#include "netsim/packet.h"
#include "nfs/corpus.h"

namespace nfactor::nfs {

/// gtest prints a corpus-parameterized test's parameter by its NF name
/// (the default is a byte dump of the entry, pointers included, which
/// changes run to run).
inline void PrintTo(const CorpusEntry& e, std::ostream* os) { *os << e.name; }

}  // namespace nfactor::nfs

namespace nfactor::testutil {

/// Parse + analyze, returning the annotated program.
inline lang::Program parsed(const std::string& src) {
  lang::Program p = lang::parse(src, "<test>");
  lang::analyze(p);
  return p;
}

/// Lower a canonical-loop program directly.
inline ir::Module lowered(const std::string& src) {
  return ir::lower(lang::parse(src, "<test>"));
}

/// Wrap per-packet statements into the canonical program skeleton.
inline std::string nf_body(const std::string& stmts,
                           const std::string& globals = "") {
  return globals + "\ndef main() {\n  while (true) {\n    pkt = recv(0);\n" +
         stmts + "\n  }\n}\n";
}

/// A size-parameterized NF: `counters` globals `c<i>`, each bumped by
/// its own guarded block, then `counters / 10` dport rules that drop,
/// then a send. It has 4.3 * counters + 7 lines (counters = 400 gives
/// 1,727; 1,600 gives 6,887), and every layer's work grows with it.
inline std::string generated_nf(int counters) {
  std::string src = "var OUT = 1;\n";
  for (int i = 0; i < counters; ++i) {
    src += "var c" + std::to_string(i) + " = 0;\n";
  }
  src += "def main() {\n  while (true) {\n    pkt = recv(0);\n";
  for (int i = 0; i < counters; ++i) {
    const std::string c = "c" + std::to_string(i);
    src += "    if (pkt.len > " + std::to_string(i) + ") {\n      " + c +
           " = " + c + " + pkt.ip_ttl;\n    }\n";
  }
  for (int r = 0; r < counters / 10; ++r) {
    src += "    if (pkt.dport == " + std::to_string(1000 + r) +
           ") {\n      return;\n    }\n";
  }
  return src + "    send(pkt, OUT);\n  }\n}\n";
}

/// A plain TCP client packet for runtime tests.
inline netsim::Packet tcp_packet(const std::string& src_ip, int sport,
                                 const std::string& dst_ip, int dport,
                                 std::uint8_t flags = netsim::kAck) {
  netsim::Packet p;
  p.ip_src = netsim::ipv4(src_ip);
  p.ip_dst = netsim::ipv4(dst_ip);
  p.sport = static_cast<std::uint16_t>(sport);
  p.dport = static_cast<std::uint16_t>(dport);
  p.tcp_flags = flags;
  return p;
}

}  // namespace nfactor::testutil
