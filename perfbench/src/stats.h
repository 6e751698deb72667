// Sample statistics for perfbench: nearest-rank percentiles,
// the tail-percentile rule, the geometric-mean roll-up across items, and
// the failure tally behind fail_rate.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace perfbench {

/// Nearest-rank percentile (p in (0, 100]) of `samples`; 0 when empty.
inline double percentile(std::vector<double> samples, double p) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const auto n = static_cast<double>(samples.size());
  auto rank = static_cast<std::size_t>(std::ceil(p / 100.0 * n));
  rank = std::clamp<std::size_t>(rank, 1, samples.size());
  return samples[rank - 1];
}

inline double median(std::vector<double> samples) {
  return percentile(std::move(samples), 50.0);
}

/// Samples strictly above the nearest-rank p-th percentile of n samples.
inline std::size_t samples_beyond(std::size_t n, double p) {
  const auto rank = static_cast<std::size_t>(
      std::ceil(p / 100.0 * static_cast<double>(n)));
  return n - std::min(rank, n);
}

/// The tail percentile a sample of n supports: the highest of p99, p90
/// and p50 that has at least ten samples beyond it. Below 20 samples
/// nothing qualifies and the median is the only figure reported.
inline double tail_percentile(std::size_t n) {
  for (const double p : {99.0, 90.0}) {
    if (samples_beyond(n, p) >= 10) return p;
  }
  return 50.0;
}

/// Geometric mean of positive values; 0 when empty or any value <= 0.
/// Items are combined this way so that one slow item (lb at ~3 us/packet)
/// cannot swamp a fast one (synflood at ~0.2 us/packet).
inline double geomean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double log_sum = 0.0;
  for (const double v : values) {
    if (!(v > 0.0)) return 0.0;
    log_sum += std::log(v);
  }
  return std::exp(log_sum / static_cast<double>(values.size()));
}

/// Per-item percentiles, e.g. the median of each NF's samples.
inline std::vector<double> per_item(const std::vector<std::vector<double>>& items,
                                    double p) {
  std::vector<double> out;
  out.reserve(items.size());
  for (const auto& s : items) out.push_back(percentile(s, p));
  return out;
}

/// How many equal blocks n samples per item are cut into for the
/// quietest-block median: as many as keep 5 samples per item, at most 60.
/// Short blocks catch the short quiet periods of a busy shared machine.
inline std::size_t block_count(std::size_t n) {
  return std::clamp<std::size_t>(n / 5, 1, 60);
}

/// The quietest-block median. Each item's samples, in time order, are cut
/// into block_count(n) equal blocks (n = the smallest item's count); in
/// each block the per-item medians are combined by geomean; the lowest
/// block wins, and its index goes to `chosen` when given. Interference
/// from other tenants of a shared machine only ever adds time and comes in
/// periods of seconds, so the quietest block is the steadiest estimate of
/// the program's own speed (Chen & Revels, "Robust benchmarking in noisy
/// environments", 2016).
inline double quietest_block_median(const std::vector<std::vector<double>>& items,
                                    std::size_t* chosen = nullptr) {
  if (chosen != nullptr) *chosen = 0;
  if (items.empty()) return 0.0;
  std::size_t n = items.front().size();
  for (const auto& s : items) n = std::min(n, s.size());
  const std::size_t blocks = block_count(n);
  const std::size_t per = n / blocks;
  double best = 0.0;
  for (std::size_t b = 0; b < blocks; ++b) {
    std::vector<std::vector<double>> block;
    for (const auto& s : items) {
      block.emplace_back(s.begin() + static_cast<std::ptrdiff_t>(b * per),
                         s.begin() + static_cast<std::ptrdiff_t>((b + 1) * per));
    }
    const double m = geomean(per_item(block, 50.0));
    if (b == 0 || m < best) {
      best = m;
      if (chosen != nullptr) *chosen = b;
    }
  }
  return best;
}

/// Operations attempted and failed; fail_rate = failed / attempted.
struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  /// Count one operation; `ok` is whether its output checked out.
  void record(bool ok) {
    ++attempted;
    if (!ok) ++failed;
  }
  double fail_rate() const {
    return attempted == 0 ? 0.0
                          : static_cast<double>(failed) /
                                static_cast<double>(attempted);
  }
};

}  // namespace perfbench
