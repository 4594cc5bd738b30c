// Self-test of the benchmark's statistics: nearest-rank percentiles on known
// inputs, span self-time arithmetic, and open-loop lateness on a synthetic
// schedule. Exits nonzero if any expectation fails.

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <numeric>
#include <vector>

#include "stats.h"
#include "trace.h"

namespace {

int failures = 0;

void Expect(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "selftest FAILED: %s\n", what);
    ++failures;
  }
}

void NearestRankPercentiles() {
  using sbonbench::NearestRank;
  // 1..100: the p-th percentile by nearest rank is exactly p.
  std::vector<double> v(100);
  std::iota(v.begin(), v.end(), 1.0);
  Expect(NearestRank(v, 50).value == 50.0, "p50 of 1..100 is 50");
  Expect(NearestRank(v, 99).value == 99.0, "p99 of 1..100 is 99");
  Expect(NearestRank(v, 99).beyond == 1, "one sample beyond p99 of 100");
  Expect(NearestRank(v, 100).value == 100.0, "p100 is the maximum");
  // 1000 samples: p99 has rank 990 and ten samples beyond it.
  std::vector<double> w(1000);
  std::iota(w.begin(), w.end(), 1.0);
  Expect(NearestRank(w, 99).rank == 990, "p99 rank of 1000 samples is 990");
  Expect(NearestRank(w, 99).beyond == 10, "ten samples beyond p99 of 1000");
  // Small sets: ceil(p/100 * n).
  Expect(NearestRank({15, 20, 35, 40, 50}, 30).value == 20.0, "p30 of five samples");
  Expect(NearestRank({15, 20, 35, 40, 50}, 40).value == 20.0, "p40 of five samples");
  Expect(NearestRank({15, 20, 35, 40, 50}, 50).value == 35.0, "p50 of five samples");
  Expect(NearestRank({7}, 99).value == 7.0, "single sample");
  Expect(NearestRank({}, 50).count == 0, "empty set");
  // Summaries come out monotone even from unsorted, skewed input.
  const sbonbench::LatencySummary s = sbonbench::Summarize({9, 1, 8, 2, 7, 3, 100, 4});
  Expect(s.Monotone(), "summary is monotone");
  Expect(s.max == 100.0 && s.p50.value == 4.0, "summary of unsorted input");
  Expect(s.slices == 1, "small sets are not sliced");
}

void SlicedSummaries() {
  // 1,000 samples 1..100 repeating: ten slices of one identical shape.
  std::vector<double> v;
  for (int i = 0; i < 1000; ++i) v.push_back(1.0 + i % 100);
  sbonbench::LatencySummary s = sbonbench::Summarize(v);
  Expect(s.slices == 10, "ten slices of 100");
  Expect(s.p50.value == 50.0 && s.p90.value == 90.0, "sliced percentiles");
  Expect(s.p90.count == 100 && s.p90.beyond == 10, "ten samples beyond p90 per slice");
  // A stall inflating two slices does not move the sliced p90; it does
  // move the maximum.
  for (int i = 0; i < 200; ++i) v[i] *= 50.0;
  s = sbonbench::Summarize(v);
  Expect(s.p90.value == 90.0, "stalled slices do not move p90");
  Expect(s.max == 5000.0 && s.Monotone(), "maximum over all slices");
  // 250 samples: two slices of 125; 10,000 samples: still ten slices.
  Expect(sbonbench::Summarize(std::vector<double>(250, 1.0)).slices == 2, "two slices");
  Expect(sbonbench::Summarize(std::vector<double>(10000, 1.0)).slices == 10, "at most ten");
}

void SelfTime() {
  using sbonbench::SelfTime;
  Expect(SelfTime(0, 100, {}) == 100, "no children");
  Expect(SelfTime(0, 100, {{10, 30}, {40, 60}}) == 60, "disjoint children");
  Expect(SelfTime(0, 100, {{10, 50}, {30, 70}}) == 40, "overlapping children");
  Expect(SelfTime(0, 100, {{10, 90}, {20, 30}}) == 20, "nested children");
  Expect(SelfTime(0, 100, {{-20, 10}, {90, 130}}) == 80, "children sticking out");
  Expect(SelfTime(0, 100, {{0, 100}}) == 0, "fully covered");

  // Through the tracer: an epoch span with two stage children.
  sbonbench::Tracer t;
  const int32_t epoch = t.Add("engine.advance_epoch", 1, -1, 1000, 2000, 5);
  t.Add("stage.jitter", 1, epoch, 1000, 1600, 0);
  t.Add("stage.refresh", 1, epoch, 1600, 1900, 0);
  t.Add("engine.submit", 1, -1, 2000, 2500, 7);
  auto totals = t.Aggregate();
  Expect(totals["engine.advance_epoch"].self_ns == 100.0, "epoch self time");
  Expect(totals["engine.advance_epoch"].ns == 1000.0, "epoch duration");
  Expect(totals["stage.jitter"].self_ns == 600.0, "leaf self time is its duration");
  Expect(totals["engine.submit"].MeanAllocs() == 7.0, "allocs per span");
}

/// Replays a synthetic open-loop schedule against a server with the given
/// per-event service times (ns), single-threaded: each event starts at the
/// later of its due time and the previous event's end. Returns the start
/// times: the model the benchmark's open-loop generator follows.
std::vector<int64_t> SimulateOpenLoop(const std::vector<int64_t>& due_ns,
                                      const std::vector<int64_t>& service_ns) {
  std::vector<int64_t> start(due_ns.size());
  int64_t free_at = due_ns.empty() ? 0 : due_ns.front();
  for (size_t i = 0; i < due_ns.size(); ++i) {
    start[i] = std::max(due_ns[i], free_at);
    free_at = start[i] + service_ns[i];
  }
  return start;
}

void OpenLoopLateness() {
  using sbonbench::Lateness;
  // Ten events every 1 ms.
  std::vector<int64_t> due;
  for (int i = 0; i < 10; ++i) due.push_back(i * 1'000'000);
  // Served in 0.5 ms each: never late.
  auto start = SimulateOpenLoop(due, std::vector<int64_t>(10, 500'000));
  auto r = Lateness(due, start, 1.0);
  Expect(r.late_ms.size() == 10, "one lateness per event");
  Expect(r.second_half_median_ms == 0.0 && !r.backlog_grew, "under capacity: on time");
  // One 3 ms stall at event 2: the next events run late, then recover.
  std::vector<int64_t> service(10, 500'000);
  service[2] = 3'000'000;
  start = SimulateOpenLoop(due, service);
  r = Lateness(due, start, 1.0);
  Expect(r.late_ms[3] == 2.0 && r.late_ms[4] == 1.5 && r.late_ms[5] == 1.0,
         "a stall delays the following events");
  Expect(r.late_ms[8] == 0.0, "the generator catches up after a stall");
  Expect(!r.backlog_grew, "a transient stall is not a growing backlog");
  // Served in 1.5 ms each at a 1 ms period: lateness grows by 0.5 ms per event.
  start = SimulateOpenLoop(due, std::vector<int64_t>(10, 1'500'000));
  r = Lateness(due, start, 1.0);
  Expect(r.late_ms[9] == 4.5, "overload lateness grows linearly");
  Expect(r.backlog_grew, "overload is a growing backlog");
}

}  // namespace

int main() {
  NearestRankPercentiles();
  SlicedSummaries();
  SelfTime();
  OpenLoopLateness();
  if (failures == 0) std::printf("selftest ok\n");
  return failures == 0 ? 0 : 1;
}
