#include "spans.h"

#include <algorithm>
#include <cstdio>

namespace perfbench {

TraceSummary Summarize(const std::vector<const SpanLog*>& logs) {
  TraceSummary summary;
  for (const SpanLog* log : logs) {
    const std::vector<Span>& spans = log->spans();
    std::vector<double> child_sum(spans.size(), 0.0);
    std::vector<double> child_parallel_max(spans.size(), 0.0);
    std::vector<int64_t> longest_leg(spans.size(), -1);
    for (size_t i = 0; i < spans.size(); ++i) {
      const Span& span = spans[i];
      if (span.parent < 0) continue;
      const double us = NanosBetween(span.start, span.end) / 1000.0;
      if (span.parallel) {
        if (longest_leg[span.parent] < 0 ||
            us > child_parallel_max[span.parent]) {
          longest_leg[span.parent] = static_cast<int64_t>(i);
        }
        child_parallel_max[span.parent] =
            std::max(child_parallel_max[span.parent], us);
      } else {
        child_sum[span.parent] += us;
      }
    }
    for (size_t i = 0; i < spans.size(); ++i) {
      const double us = NanosBetween(spans[i].start, spans[i].end) / 1000.0;
      LayerSummary& layer = summary.layers[spans[i].name];
      layer.total_us += us;
      const double self = us - child_sum[i] - child_parallel_max[i];
      layer.self_us_total += self;
      if (!spans[i].parallel ||
          longest_leg[spans[i].parent] == static_cast<int64_t>(i)) {
        layer.path_self_us_total += self;
      }
      ++layer.calls;
      if (spans[i].parent < 0) {
        ++summary.requests;
        summary.root_us_total += us;
        summary.root_us.push_back(us);
      }
    }
  }
  return summary;
}

bool WriteSpans(const std::vector<const SpanLog*>& logs,
                const std::string& path) {
  FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  Clock::time_point origin = Clock::time_point::max();
  for (const SpanLog* log : logs) {
    for (const Span& span : log->spans()) origin = std::min(origin, span.start);
  }
  for (size_t l = 0; l < logs.size(); ++l) {
    const std::vector<Span>& spans = logs[l]->spans();
    for (size_t i = 0; i < spans.size(); ++i) {
      std::fprintf(out,
                   "{\"log\":%zu,\"request\":%llu,\"id\":%zu,\"parent\":%d,"
                   "\"name\":\"%s\",\"start_ns\":%lld,\"end_ns\":%lld}\n",
                   l, static_cast<unsigned long long>(spans[i].request), i,
                   spans[i].parent, spans[i].name,
                   static_cast<long long>(NanosBetween(origin, spans[i].start)),
                   static_cast<long long>(NanosBetween(origin, spans[i].end)));
    }
  }
  return std::fclose(out) == 0;
}

}  // namespace perfbench
