// The NF corpus: DSL re-implementations of the programs the paper
// studies (Fig. 1 load balancer, Fig. 3 "balance", snort) plus three
// more NFs (NAT, stateful firewall, consumer-producer rate monitor) that
// exercise every §3.2 code structure. The programs' source is nfs/*.nf,
// embedded at build time (src/nfs/CMakeLists.txt) for tests, benches and
// examples; write_corpus() writes the embedded copies back out.
#pragma once

#include <string>
#include <string_view>
#include <vector>

namespace nfactor::nfs {

struct CorpusEntry {
  std::string_view name;      // "lb", "balance", "snort_lite", ...
  std::string_view filename;  // "lb.nf"
  std::string_view source;
  std::string_view structure;  // §3.2 structure this program exhibits
};

const std::vector<CorpusEntry>& corpus();
const CorpusEntry& find(std::string_view name);

/// Write every corpus program to `<dir>/<filename>`.
void write_corpus(const std::string& dir);

/// Synthetic NF generator for scaling studies: a fixed forwarding core
/// (port-match + connection map) surrounded by `log_branches` independent
/// forwarding-irrelevant statistic branches and `rules` header-match drop
/// rules. Slicing should prune the former and keep the latter, so
/// original-program SE cost grows ~2^log_branches while slice SE grows
/// ~linearly in `rules`.
std::string synthetic_nf(int log_branches, int rules);

}  // namespace nfactor::nfs
