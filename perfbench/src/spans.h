// In-memory spans for the traced run.
//
// The benchmark cannot put spans inside src/, so it times calls into each
// module's public functions from its own code. A call that is part of an
// outer call (ParseQuery inside ResolveRequest, Optimizer::Optimize inside
// Engine::SearchQuery, ...) is replayed on the same input right after the
// outer call and recorded as that call's child. A span's self time is its
// duration minus its children's: the sum of sequential children, plus the
// longest of the children marked parallel (shard legs of one fan-out).
// Spans of one request share a request id. Each thread keeps its own
// SpanLog; logs are summarized and written out when the run ends.

#ifndef PERFBENCH_SPANS_H_
#define PERFBENCH_SPANS_H_

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "util.h"

namespace perfbench {

struct Span {
  const char* name = "";
  int32_t parent = -1;  // index into the same log, -1 for a root
  uint64_t request = 0;
  Clock::time_point start;
  Clock::time_point end;
  bool parallel = false;  // one of several concurrent sibling legs
};

class SpanLog {
 public:
  explicit SpanLog(size_t reserve = 1 << 16) { spans_.reserve(reserve); }

  int32_t Add(const char* name, int32_t parent, uint64_t request,
              Clock::time_point start, Clock::time_point end,
              bool parallel = false) {
    spans_.push_back(Span{name, parent, request, start, end, parallel});
    return static_cast<int32_t>(spans_.size() - 1);
  }

  // Opens a span that encloses later ones; close it with End.
  int32_t Begin(const char* name, int32_t parent, uint64_t request) {
    const Clock::time_point now = Clock::now();
    return Add(name, parent, request, now, now);
  }
  void End(int32_t id) { spans_[id].end = Clock::now(); }

  // Runs `fn`, records it as a span, returns {span id, fn's result}.
  template <typename Fn>
  auto Time(const char* name, int32_t parent, uint64_t request, Fn&& fn) {
    const Clock::time_point start = Clock::now();
    auto result = fn();
    const int32_t id = Add(name, parent, request, start, Clock::now());
    return std::make_pair(id, std::move(result));
  }

  const std::vector<Span>& spans() const { return spans_; }

 private:
  std::vector<Span> spans_;
};

struct LayerSummary {
  double self_us_total = 0.0;
  // Self time on the blocking path: of a group of parallel legs only the
  // longest counts.
  double path_self_us_total = 0.0;
  double total_us = 0.0;
  uint64_t calls = 0;
};

struct TraceSummary {
  std::map<std::string, LayerSummary> layers;  // by span name
  uint64_t requests = 0;                        // root spans
  double root_us_total = 0.0;
  std::vector<double> root_us;                  // per request
};

TraceSummary Summarize(const std::vector<const SpanLog*>& logs);

// Writes every span as one JSON line: request, id, parent, name, start
// and end in nanoseconds from the earliest span.
bool WriteSpans(const std::vector<const SpanLog*>& logs,
                const std::string& path);

}  // namespace perfbench

#endif  // PERFBENCH_SPANS_H_
