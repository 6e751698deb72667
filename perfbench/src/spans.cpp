#include "spans.h"

#include <algorithm>
#include <cstdio>
#include <sstream>

#include "obs/json.h"

namespace perfbench {

void Spans::drain() {
  std::vector<nfactor::obs::SpanRecord> recs = tracer_.spans();
  tracer_.clear();
  if (recs.empty()) return;
  // Parents start no later than their children and last longer, so after
  // this sort each record's parent is the innermost enclosing one still
  // on the stack.
  std::sort(recs.begin(), recs.end(), [](const auto& a, const auto& b) {
    return a.start_ns != b.start_ns ? a.start_ns < b.start_ns
                                    : a.dur_ns > b.dur_ns;
  });
  std::vector<std::int64_t> child_ns(recs.size(), 0);
  std::vector<std::size_t> stack;
  for (std::size_t i = 0; i < recs.size(); ++i) {
    while (!stack.empty()) {
      const auto& top = recs[stack.back()];
      if (top.start_ns + top.dur_ns > recs[i].start_ns) break;
      stack.pop_back();
    }
    if (!stack.empty()) child_ns[stack.back()] += recs[i].dur_ns;
    stack.push_back(i);
  }
  for (std::size_t i = 0; i < recs.size(); ++i) {
    SpanTotals& t = totals_[recs[i].name];
    ++t.count;
    t.total_ms += static_cast<double>(recs[i].dur_ns) / 1e6;
    t.self_ms += static_cast<double>(recs[i].dur_ns - child_ns[i]) / 1e6;
  }
  for (auto& r : recs) {
    if (kept_.size() >= kKeptSpans) break;
    kept_.push_back(std::move(r));
  }
}

std::string Spans::chrome_json() const {
  std::ostringstream os;
  os << "{\"traceEvents\":[";
  char buf[96];
  for (std::size_t i = 0; i < kept_.size(); ++i) {
    const auto& r = kept_[i];
    std::snprintf(buf, sizeof buf, "\"ts\":%.3f,\"dur\":%.3f",
                  static_cast<double>(r.start_ns) / 1e3,
                  static_cast<double>(r.dur_ns) / 1e3);
    os << (i == 0 ? "" : ",") << "{\"name\":\""
       << nfactor::obs::json_escape(r.name)
       << "\",\"cat\":\"perfbench\",\"ph\":\"X\"," << buf
       << ",\"pid\":1,\"tid\":1}";
  }
  os << "],\"displayTimeUnit\":\"ns\"}\n";
  return os.str();
}

}  // namespace perfbench
