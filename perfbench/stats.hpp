#pragma once
// Sample statistics and derived-ratio arithmetic of the benchmark.
//
// Quantiles are nearest-rank: the q-quantile of n ascending samples is
// x[ceil(q*n) - 1]. A tail quantile is reported only where it rests on
// data: with fewer than kMinBeyond samples strictly above it, the maximum
// is reported instead (quantile 1.0) and labelled as such.
#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace perfbench {

inline constexpr std::size_t kMinBeyond = 10;

/// Index of the nearest-rank q-quantile in an ascending sample of size n
/// (n >= 1).
inline std::size_t rank_index(std::size_t n, double q) {
  const double k = std::ceil(q * static_cast<double>(n)) - 1.0;
  if (k <= 0.0) return 0;
  return std::min(n - 1, static_cast<std::size_t>(k));
}

/// Samples strictly above the nearest-rank q-quantile.
inline std::size_t samples_beyond(std::size_t n, double q) {
  return n == 0 ? 0 : n - 1 - rank_index(n, q);
}

/// `q` when at least kMinBeyond of n samples lie above the q-quantile,
/// else 1.0 (the maximum).
inline double supported_quantile(std::size_t n, double q) {
  return samples_beyond(n, q) >= kMinBeyond ? q : 1.0;
}

/// Nearest-rank q-quantile of an ascending sample (0 when empty).
inline double quantile_sorted(const std::vector<double>& sorted, double q) {
  return sorted.empty() ? 0.0 : sorted[rank_index(sorted.size(), q)];
}

struct Summary {
  std::size_t n = 0;
  double median = 0.0;
  double p90 = 0.0;
  double p90_q = 0.0;  ///< supported_quantile(n, 0.9): 0.9 or 1.0
  double p99 = 0.0;
  double p99_q = 0.0;  ///< supported_quantile(n, 0.99): 0.99 or 1.0
};

inline Summary summarize(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  Summary s;
  s.n = v.size();
  s.median = quantile_sorted(v, 0.5);
  s.p90_q = supported_quantile(v.size(), 0.9);
  s.p90 = quantile_sorted(v, s.p90_q);
  s.p99_q = supported_quantile(v.size(), 0.99);
  s.p99 = quantile_sorted(v, s.p99_q);
  return s;
}

inline double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return quantile_sorted(v, 0.5);
}

/// Nearest-rank lower quartile. Over rounds of one run it estimates a
/// statistic undisturbed by outside stalls, which only ever add time.
inline double lower_quartile(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return quantile_sorted(v, 0.25);
}

/// A derived ratio together with its base. A zero base gives value 0: the
/// layer did no work on this workload.
struct Ratio {
  double value = 0.0;
  double num = 0.0;
  double den = 0.0;  ///< the base
};

inline Ratio ratio(double num, double den) {
  return {den != 0.0 ? num / den : 0.0, num, den};
}

/// Events per thousand of `base` (e.g. cache evictions per 1000 lookups).
inline Ratio per_kilo(std::uint64_t events, std::uint64_t base) {
  const Ratio r =
      ratio(static_cast<double>(events), static_cast<double>(base) / 1000.0);
  return {r.value, static_cast<double>(events), static_cast<double>(base)};
}

/// Share of `total` not explained by `part`: (total - part) / total.
inline Ratio share_beyond(double total, double part) {
  return ratio(total - part, total);
}

}  // namespace perfbench
