#ifndef SBONBENCH_STATS_H_
#define SBONBENCH_STATS_H_

// Exact statistics for the benchmark: every sample is stored, percentiles
// are nearest-rank over sorted samples (summaries take their median over
// time slices), and span self time is computed from the union of child
// intervals. Header-only so the self-test binary checks exactly the code
// the benchmark runs.

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace sbonbench {

/// One nearest-rank percentile of a sample set, with the counts needed to
/// judge whether the sample supports it.
struct Percentile {
  double value = 0.0;
  size_t count = 0;   ///< samples in the set
  size_t rank = 0;    ///< 1-based nearest rank of the value
  size_t beyond = 0;  ///< samples ranked after the value (count - rank)
};

/// Nearest-rank percentile `p` in (0, 100] of `sorted` (ascending):
/// the value at 1-based rank ceil(p/100 * n). Empty input gives count 0.
inline Percentile NearestRank(const std::vector<double>& sorted, double p) {
  Percentile out;
  out.count = sorted.size();
  if (sorted.empty()) return out;
  // The epsilon keeps exact products such as 0.99 * 1000 from rounding up
  // to the next rank through floating-point error.
  size_t rank =
      static_cast<size_t>(std::ceil(p / 100.0 * static_cast<double>(sorted.size()) - 1e-9));
  rank = std::clamp<size_t>(rank, 1, sorted.size());
  out.rank = rank;
  out.value = sorted[rank - 1];
  out.beyond = sorted.size() - rank;
  return out;
}

/// Summary of one time-ordered latency sample set: median, p90 and
/// maximum. To keep a transient stall of the machine from moving the tail,
/// the samples are cut into `slices` equal consecutive slices — as many as
/// keep at least ten samples beyond p90 in every slice, at most ten — and
/// each percentile is the median, by nearest rank, of the slices' own
/// nearest-rank percentiles. With one slice this is the plain nearest-rank
/// percentile of the whole set.
struct LatencySummary {
  Percentile p50;  ///< value: the median over slices; counts: of one slice
  Percentile p90;
  double max = 0.0;
  size_t slices = 0;

  /// p50 <= p90 <= max, which the construction guarantees (it holds in
  /// every slice, and the median keeps the order); checked anyway because
  /// a report that breaks it is wrong.
  bool Monotone() const { return p50.value <= p90.value && p90.value <= max; }
};

inline constexpr size_t kMaxSlices = 10;

inline LatencySummary Summarize(const std::vector<double>& samples) {
  LatencySummary s;
  const size_t n = samples.size();
  if (n == 0) return s;
  s.slices = std::clamp<size_t>(n / 100, 1, kMaxSlices);
  std::vector<double> p50s, p90s;
  for (size_t i = 0; i < s.slices; ++i) {
    std::vector<double> slice(samples.begin() + i * n / s.slices,
                              samples.begin() + (i + 1) * n / s.slices);
    std::sort(slice.begin(), slice.end());
    const Percentile p50 = NearestRank(slice, 50.0);
    const Percentile p90 = NearestRank(slice, 90.0);
    if (i == 0 || p90.beyond < s.p90.beyond) {
      s.p50 = p50;
      s.p90 = p90;
    }
    p50s.push_back(p50.value);
    p90s.push_back(p90.value);
  }
  std::sort(p50s.begin(), p50s.end());
  std::sort(p90s.begin(), p90s.end());
  s.p50.value = NearestRank(p50s, 50.0).value;
  s.p90.value = NearestRank(p90s, 50.0).value;
  s.max = *std::max_element(samples.begin(), samples.end());
  return s;
}

/// Median of a sample set (nearest rank); 0 for an empty set.
inline double Median(std::vector<double> samples) {
  std::sort(samples.begin(), samples.end());
  return NearestRank(samples, 50.0).value;
}

/// Length of the part of [lo, hi) covered by the union of `intervals`
/// (each [start, end)); intervals may overlap, nest or stick out of the
/// window.
inline int64_t CoveredLength(int64_t lo, int64_t hi,
                             std::vector<std::pair<int64_t, int64_t>> intervals) {
  std::sort(intervals.begin(), intervals.end());
  int64_t covered = 0;
  int64_t cursor = lo;
  for (const auto& [start, end] : intervals) {
    const int64_t s = std::max(start, cursor);
    const int64_t e = std::min(end, hi);
    if (e > s) {
      covered += e - s;
      cursor = e;
    }
  }
  return covered;
}

/// Self time of a span [start, end): its duration minus the part of that
/// interval its children cover.
inline int64_t SelfTime(int64_t start, int64_t end,
                        const std::vector<std::pair<int64_t, int64_t>>& children) {
  return (end - start) - CoveredLength(start, end, children);
}

/// Open-loop generator lateness: how late each event started relative to
/// its due time (both in the same clock), and whether the backlog grew.
struct LatenessReport {
  std::vector<double> late_ms;  ///< per event, in schedule order
  double first_half_median_ms = 0.0;
  double second_half_median_ms = 0.0;
  /// The second half's median lateness exceeds the first half's by more
  /// than `tolerance_ms`: the engine fell behind and did not catch up.
  bool backlog_grew = false;
};

/// Lateness of events with `due_ns[i]` started at `start_ns[i]` (schedule
/// order). An event started early counts as on time.
inline LatenessReport Lateness(const std::vector<int64_t>& due_ns,
                               const std::vector<int64_t>& start_ns,
                               double tolerance_ms) {
  LatenessReport r;
  const size_t n = std::min(due_ns.size(), start_ns.size());
  r.late_ms.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    r.late_ms.push_back(
        static_cast<double>(std::max<int64_t>(0, start_ns[i] - due_ns[i])) * 1e-6);
  }
  const size_t half = n / 2;
  r.first_half_median_ms =
      Median(std::vector<double>(r.late_ms.begin(), r.late_ms.begin() + half));
  r.second_half_median_ms =
      Median(std::vector<double>(r.late_ms.begin() + half, r.late_ms.end()));
  r.backlog_grew =
      r.second_half_median_ms > r.first_half_median_ms + tolerance_ms;
  return r;
}

}  // namespace sbonbench

#endif  // SBONBENCH_STATS_H_
