#include "analysis/pdg.h"

#include "obs/obs.h"

namespace nfactor::analysis {

Pdg::Pdg(const ir::Cfg& cfg) : cfg_(cfg), rd_(cfg) {
  OBS_SPAN_VAR(span, "slice.pdg_build");
  span.attr("cfg_nodes", static_cast<std::int64_t>(cfg.size()));
  data_.resize(cfg.size());
  for (const auto& n : cfg.nodes) {
    data_[static_cast<std::size_t>(n->id)] = rd_.data_deps(n->id);
  }
  control_ = control_dependence(cfg).deps;
}

int BackwardClosure::next() {
  if (work_.empty()) return -1;
  const int u = work_.back();
  work_.pop_back();
  ++pops_;
  for (const int d : pdg_.data_deps(u)) add(d);
  for (const int c : pdg_.control_deps(u)) add(c);
  return u;
}

std::set<int> BackwardClosure::finish() {
  while (next() >= 0) {
  }
  std::set<int> slice;
  for (std::size_t i = 0; i < in_.size(); ++i) {
    if (in_[i]) slice.insert(slice.end(), static_cast<int>(i));
  }
  OBS_COUNT("slice.backward_slices");
  OBS_COUNT_N("slice.worklist.pops", pops_);
  OBS_HIST("slice.size_nodes", size_);
  return slice;
}

std::set<int> Pdg::backward_slice(int criterion,
                                  const std::set<ir::Location>& locs) const {
  BackwardClosure c(*this);
  if (locs.empty()) {
    c.add(criterion);
    return c.finish();
  }
  c.add(criterion, /*follow=*/false);
  for (const auto& loc : locs) {
    for (const int d : rd_.reaching_def_nodes(criterion, loc)) c.add(d);
  }
  for (const int cd : control_deps(criterion)) c.add(cd);
  return c.finish();
}

std::set<int> Pdg::backward_slice(const std::set<int>& criteria) const {
  BackwardClosure c(*this);
  for (const int n : criteria) c.add(n);
  return c.finish();
}

}  // namespace nfactor::analysis
