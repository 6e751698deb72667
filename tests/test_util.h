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
