#include "nfs/corpus.h"

#include <fstream>
#include <stdexcept>
#include <utility>

namespace nfactor::nfs {

namespace {

/// nfs/*.nf by file name, embedded at build time (src/nfs/CMakeLists.txt).
constexpr std::pair<std::string_view, std::string_view> kSources[] = {
#include "corpus_sources.inc"
};

/// A corpus entry with the embedded text of nfs/<filename>; a compile
/// error when there is no such file.
consteval CorpusEntry nf(std::string_view name, std::string_view filename,
                         std::string_view structure) {
  for (const auto& [file, text] : kSources) {
    if (file == filename) return {name, filename, text, structure};
  }
  throw "no such file in nfs/";
}

const std::vector<CorpusEntry> kCorpus = {
    nf("lb", "lb.nf", "callback"),
    nf("balance", "balance_sock.nf", "nested-loop"),
    nf("snort_lite", "snort_lite.nf", "canonical-loop"),
    nf("nat", "nat.nf", "canonical-loop"),
    nf("firewall", "firewall.nf", "canonical-loop"),
    nf("monitor", "monitor.nf", "consumer-producer"),
    nf("l2_switch", "l2_switch.nf", "canonical-loop"),
    nf("dpi", "dpi.nf", "canonical-loop"),
    nf("heavy_hitter", "heavy_hitter.nf", "canonical-loop"),
    nf("synflood", "synflood.nf", "canonical-loop"),
};

}  // namespace

const std::vector<CorpusEntry>& corpus() { return kCorpus; }

const CorpusEntry& find(std::string_view name) {
  for (const auto& e : kCorpus) {
    if (e.name == name) return e;
  }
  throw std::out_of_range("no corpus NF named '" + std::string(name) + "'");
}

std::string synthetic_nf(int log_branches, int rules) {
  std::string src;
  src += "# synthetic NF: " + std::to_string(log_branches) +
         " stat branches, " + std::to_string(rules) + " drop rules\n";
  src += "var SVC_PORT = 80;\nvar conns = {};\n";
  for (int i = 0; i < log_branches; ++i) {
    src += "var stat_" + std::to_string(i) + " = 0;\n";
  }
  src += "var rules = [";
  for (int i = 0; i < rules; ++i) {
    // (proto, dport) pairs; ports spread out so rules stay distinct.
    src += "(6, " + std::to_string(1000 + i) + "), ";
  }
  src += "];\n";
  src += "def main() {\n  while (true) {\n    pkt = recv(0);\n";
  for (int i = 0; i < log_branches; ++i) {
    const std::string fld = (i % 3 == 0)   ? "pkt.len > " + std::to_string(64 + i)
                            : (i % 3 == 1) ? "pkt.ip_ttl < " + std::to_string(8 + i)
                                           : "pkt.ip_tos == " + std::to_string(i);
    src += "    if (" + fld + ") {\n      stat_" + std::to_string(i) +
           " = stat_" + std::to_string(i) + " + 1;\n    }\n";
  }
  src += "    for i in 0..len(rules) {\n"
         "      r = rules[i];\n"
         "      if (r[0] == pkt.ip_proto && r[1] == pkt.dport) {\n"
         "        return;\n"
         "      }\n"
         "    }\n";
  src += "    if (pkt.dport == SVC_PORT) {\n"
         "      k = (pkt.ip_src, pkt.sport);\n"
         "      conns[k] = 1;\n"
         "      send(pkt, 1);\n"
         "      return;\n"
         "    }\n"
         "    rk = (pkt.ip_dst, pkt.dport);\n"
         "    if (rk in conns) {\n"
         "      send(pkt, 0);\n"
         "    }\n"
         "  }\n}\n";
  return src;
}

void write_corpus(const std::string& dir) {
  for (const auto& e : kCorpus) {
    std::ofstream out(dir + "/" + std::string(e.filename));
    if (!out) {
      throw std::runtime_error("cannot write corpus file in " + dir);
    }
    out << e.source;
  }
}

}  // namespace nfactor::nfs
