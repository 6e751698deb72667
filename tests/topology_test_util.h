// Shared helpers for the topology-verification test suite: a corpus
// model cache (stable pointers for Topology's borrowed model/module
// references) and small .topo builders.
#pragma once

#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "nfactor/pipeline.h"
#include "nfs/corpus.h"
#include "verify/topology.h"

namespace nfactor::testutil {

/// Synthesizes each corpus NF at most once per process, with the
/// production pipeline settings nf-synth and nf-verify use (simplify +
/// config folding, or without folding for models whose config `cfg`
/// pins select), and hands out stable model/module pointers.
class CorpusModels {
 public:
  explicit CorpusModels(bool fold_config = true) : fold_config_(fold_config) {}

  verify::NodeModels resolve(const std::string& nf) {
    auto it = cache_.find(nf);
    if (it == cache_.end()) {
      pipeline::PipelineOptions opts;
      opts.simplify.enabled = true;
      opts.simplify.fold_config = fold_config_;
      auto r = pipeline::run_source(nfs::find(nf).source, nf, opts);
      it = cache_.emplace(nf, std::move(r)).first;
    }
    return {&it->second.model, it->second.module.get()};
  }

  verify::ModelResolver resolver() {
    return [this](const std::string& nf) { return resolve(nf); };
  }

 private:
  bool fold_config_;
  std::map<std::string, pipeline::PipelineResult> cache_;
};

/// Process-wide cache so each test binary synthesizes the corpus once.
inline CorpusModels& corpus_models() {
  static CorpusModels models;
  return models;
}

/// The same without config folding: the models `cfg` pins act on.
inline CorpusModels& pinnable_models() {
  static CorpusModels models(/*fold_config=*/false);
  return models;
}

/// A linear chain "in -> nfs[0] -> ... -> nfs[n-1] -> out": every hop's
/// emissions (any port) feed the next instance's port 0; the last
/// instance's emissions exit at `out`. Instance ids are "h0", "h1", ...
inline std::string chain_topo(const std::vector<std::string>& nfs) {
  std::ostringstream os;
  for (std::size_t i = 0; i < nfs.size(); ++i) {
    os << "node h" << i << " " << nfs[i] << "\n";
  }
  os << "ingress in -> h0:0\n";
  for (std::size_t i = 0; i + 1 < nfs.size(); ++i) {
    os << "edge h" << i << ":* -> h" << (i + 1) << ":0\n";
  }
  os << "egress out <- h" << (nfs.size() - 1) << ":*\n";
  return os.str();
}

inline verify::Topology parse_chain(const std::vector<std::string>& nfs) {
  return verify::parse_topology(chain_topo(nfs), corpus_models().resolver());
}

}  // namespace nfactor::testutil
