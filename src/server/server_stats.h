// Metric primitives for the HTTP services' cumulative request statistics
// (server::RequestOutcomes in http_service.h).
//
// Everything on the hot path is a relaxed atomic: handlers on different
// pool workers record concurrently with readers rendering /stats, and no
// counter needs to be consistent with any other — /stats is an
// observability snapshot, not an invariant. Latencies go into a
// log-bucketed histogram (one power-of-two bucket per microsecond bit
// width), whose percentile read-out interpolates within the winning
// bucket; error vs. true value is bounded by the bucket width (< 2x),
// which is plenty for p50/p95/p99 dashboards.
//
// Per-scheme counts use a fixed slot table keyed by the global scheme
// registry (schemes register at startup, before the server accepts
// traffic), so recording a scheme hit is one relaxed fetch_add, no lock.

#ifndef GRAFT_SERVER_SERVER_STATS_H_
#define GRAFT_SERVER_SERVER_STATS_H_

#include <atomic>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace graft::server {

// Log-bucketed latency histogram over microseconds. Thread-safe.
class LatencyHistogram {
 public:
  static constexpr size_t kBuckets = 40;  // covers up to ~2^39 us (~6 days)

  void Record(uint64_t micros);

  // Returns the approximate q-quantile (q in [0,1]) in microseconds, by
  // linear interpolation inside the bucket containing the target rank.
  // 0 when empty.
  double PercentileMicros(double q) const;

  uint64_t count() const {
    return count_.load(std::memory_order_relaxed);
  }

  uint64_t sum_micros() const {
    return sum_micros_.load(std::memory_order_relaxed);
  }

  // Renders {"count":n,"p50_ms":...,"p95_ms":...,"p99_ms":...,"max_ms":...}
  std::string ToJson() const;

 private:
  std::atomic<uint64_t> buckets_[kBuckets] = {};
  std::atomic<uint64_t> count_{0};
  std::atomic<uint64_t> sum_micros_{0};
  std::atomic<uint64_t> max_micros_{0};
};

// One slot per registered scoring scheme plus a catch-all.
class SchemeCounters {
 public:
  SchemeCounters();

  void Record(std::string_view scheme_name);

  // Renders {"MeanSum":12,...} (only non-zero slots).
  std::string ToJson() const;

  // Non-zero (name, count) slots — the /metrics label values.
  std::vector<std::pair<std::string, uint64_t>> NonZero() const;

 private:
  std::vector<std::string> names_;
  std::vector<std::atomic<uint64_t>> counts_;
};

}  // namespace graft::server

#endif  // GRAFT_SERVER_SERVER_STATS_H_
