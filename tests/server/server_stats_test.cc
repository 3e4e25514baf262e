// ServerStats units: histogram bucketing/percentiles, disjoint outcome
// classification, per-scheme counters, and JSON rendering.

#include "server/server_stats.h"

#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

#include "server/search_service.h"

namespace graft::server {
namespace {

TEST(LatencyHistogramTest, EmptyIsZero) {
  LatencyHistogram histogram;
  EXPECT_EQ(histogram.count(), 0u);
  EXPECT_EQ(histogram.PercentileMicros(0.5), 0.0);
}

TEST(LatencyHistogramTest, PercentilesAreBucketAccurate) {
  LatencyHistogram histogram;
  // 90 samples at ~1ms, 10 samples at ~100ms.
  for (int i = 0; i < 90; ++i) histogram.Record(1000);
  for (int i = 0; i < 10; ++i) histogram.Record(100000);
  EXPECT_EQ(histogram.count(), 100u);
  // Log-bucketed: the estimate must land within the 2x bucket of truth.
  const double p50 = histogram.PercentileMicros(0.50);
  EXPECT_GE(p50, 512.0);
  EXPECT_LE(p50, 2048.0);
  const double p99 = histogram.PercentileMicros(0.99);
  EXPECT_GE(p99, 65536.0);
  EXPECT_LE(p99, 262144.0);
}

TEST(LatencyHistogramTest, MonotoneAcrossQuantiles) {
  LatencyHistogram histogram;
  for (uint64_t v = 1; v <= 4096; v *= 2) {
    histogram.Record(v);
  }
  double prev = 0.0;
  for (const double q : {0.1, 0.5, 0.9, 0.99, 1.0}) {
    const double value = histogram.PercentileMicros(q);
    EXPECT_GE(value, prev) << "q=" << q;
    prev = value;
  }
}

TEST(LatencyHistogramTest, ConcurrentRecordsAllCounted) {
  LatencyHistogram histogram;
  constexpr int kThreads = 4;
  constexpr int kPerThread = 5000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&histogram] {
      for (int i = 0; i < kPerThread; ++i) {
        histogram.Record(static_cast<uint64_t>(i));
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(histogram.count(),
            static_cast<uint64_t>(kThreads) * kPerThread);
}

TEST(LatencyHistogramTest, JsonHasAllFields) {
  LatencyHistogram histogram;
  histogram.Record(1500);
  const std::string json = histogram.ToJson();
  EXPECT_NE(json.find("\"count\":1"), std::string::npos) << json;
  for (const char* field :
       {"\"mean_ms\":", "\"p50_ms\":", "\"p95_ms\":", "\"p99_ms\":",
        "\"max_ms\":"}) {
    EXPECT_NE(json.find(field), std::string::npos) << json;
  }
}

TEST(SchemeCountersTest, CountsKnownAndUnknownSchemes) {
  SchemeCounters counters;
  counters.Record("MeanSum");
  counters.Record("MeanSum");
  counters.Record("Lucene");
  counters.Record("NoSuchScheme");
  const std::string json = counters.ToJson();
  EXPECT_NE(json.find("\"MeanSum\":2"), std::string::npos) << json;
  EXPECT_NE(json.find("\"Lucene\":1"), std::string::npos) << json;
  EXPECT_NE(json.find("\"(other)\":1"), std::string::npos) << json;
  EXPECT_EQ(json.find("AnySum"), std::string::npos) << json;  // zero: omitted
}

TEST(ServerStatsTest, OutcomeClassificationIsDisjoint) {
  ServerStats stats;
  stats.requests_total.store(6);
  stats.RecordResponseCode(200);
  stats.RecordResponseCode(400);
  stats.RecordResponseCode(404);
  stats.RecordResponseCode(503);
  stats.RecordResponseCode(504);
  stats.RecordResponseCode(500);
  EXPECT_EQ(stats.responses_ok.load(), 1u);
  EXPECT_EQ(stats.client_errors.load(), 2u);
  EXPECT_EQ(stats.rejected_overload.load(), 1u);
  EXPECT_EQ(stats.deadline_exceeded.load(), 1u);
  EXPECT_EQ(stats.server_errors.load(), 1u);
  EXPECT_EQ(stats.responses_ok.load() + stats.client_errors.load() +
                stats.server_errors.load() + stats.rejected_overload.load() +
                stats.deadline_exceeded.load(),
            stats.requests_total.load());
}

TEST(ServerStatsTest, JsonDocumentShape) {
  ServerStats stats;
  stats.requests_total.store(3);
  stats.RecordResponseCode(200);
  stats.scheme_counts.Record("MeanSum");
  stats.search_latency.Record(2000);
  const std::string json = stats.ToJson();
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
  for (const char* field :
       {"\"requests_total\":3", "\"responses_ok\":1", "\"client_errors\":0",
        "\"rejected_overload\":0", "\"deadline_exceeded\":0",
        "\"malformed_requests\":0", "\"search_latency\":{",
        "\"scheme_counts\":{\"MeanSum\":1}"}) {
    EXPECT_NE(json.find(field), std::string::npos) << json;
  }
}

}  // namespace
}  // namespace graft::server
