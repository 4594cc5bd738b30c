#ifndef SBONBENCH_TRACE_H_
#define SBONBENCH_TRACE_H_

// In-memory span recorder of the traced run. Spans are recorded by the
// benchmark around its calls into the library (nothing inside the library
// is instrumented), kept in a vector, aggregated per span name at the end
// and optionally written out as JSON lines.

#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "stats.h"

namespace sbonbench {

struct Span {
  const char* name = "";  ///< layer-qualified call name, e.g. "engine.submit"
  uint64_t id = 0;        ///< arrival sequence number or epoch/iteration index
  int32_t parent = -1;    ///< index of the parent span; -1 for a root
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  uint64_t allocs = 0;    ///< heap allocations made inside the span
};

/// Per span name: how often it ran and the summed duration, self time and
/// allocations.
struct SpanTotals {
  size_t count = 0;
  double ns = 0.0;
  double self_ns = 0.0;
  double allocs = 0.0;

  double MeanNs() const { return count == 0 ? 0.0 : ns / static_cast<double>(count); }
  double MeanSelfNs() const {
    return count == 0 ? 0.0 : self_ns / static_cast<double>(count);
  }
  double MeanAllocs() const {
    return count == 0 ? 0.0 : allocs / static_cast<double>(count);
  }
};

class Tracer {
 public:
  /// Records a span and returns its index (usable as a parent).
  int32_t Add(const char* name, uint64_t id, int32_t parent, int64_t start_ns,
              int64_t end_ns, uint64_t allocs) {
    spans_.push_back(Span{name, id, parent, start_ns, end_ns, allocs});
    return static_cast<int32_t>(spans_.size() - 1);
  }

  const std::vector<Span>& spans() const { return spans_; }

  /// Totals per span name; a span's self time is its duration minus the
  /// part of it its children cover.
  std::map<std::string, SpanTotals> Aggregate() const {
    std::vector<std::vector<std::pair<int64_t, int64_t>>> children(spans_.size());
    for (const Span& s : spans_) {
      if (s.parent >= 0) children[s.parent].emplace_back(s.start_ns, s.end_ns);
    }
    std::map<std::string, SpanTotals> out;
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      SpanTotals& t = out[s.name];
      ++t.count;
      t.ns += static_cast<double>(s.end_ns - s.start_ns);
      t.self_ns += static_cast<double>(SelfTime(s.start_ns, s.end_ns, children[i]));
      t.allocs += static_cast<double>(s.allocs);
    }
    return out;
  }

  /// Writes one JSON object per span per line. Returns false on I/O error.
  bool WriteJsonLines(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f,
                   "{\"span\": %zu, \"name\": \"%s\", \"id\": %llu, \"parent\": %d, "
                   "\"start_ns\": %lld, \"end_ns\": %lld, \"allocs\": %llu}\n",
                   i, s.name, static_cast<unsigned long long>(s.id), s.parent,
                   static_cast<long long>(s.start_ns), static_cast<long long>(s.end_ns),
                   static_cast<unsigned long long>(s.allocs));
    }
    return std::fclose(f) == 0;
  }

 private:
  std::vector<Span> spans_;
};

}  // namespace sbonbench

#endif  // SBONBENCH_TRACE_H_
