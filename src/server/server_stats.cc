#include "server/server_stats.h"

#include <algorithm>
#include <cstdio>

#include "sa/scoring_scheme.h"
#include "server/http.h"

namespace graft::server {

namespace {

// Bucket index: number of significant bits in `micros` (0 -> bucket 0).
size_t BucketFor(uint64_t micros) {
  size_t bits = 0;
  while (micros != 0 && bits + 1 < LatencyHistogram::kBuckets) {
    micros >>= 1;
    ++bits;
  }
  return bits;
}

void AppendMs(std::string* out, double micros) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.3f", micros / 1000.0);
  *out += buf;
}

}  // namespace

void LatencyHistogram::Record(uint64_t micros) {
  buckets_[BucketFor(micros)].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  sum_micros_.fetch_add(micros, std::memory_order_relaxed);
  uint64_t seen = max_micros_.load(std::memory_order_relaxed);
  while (micros > seen && !max_micros_.compare_exchange_weak(
                              seen, micros, std::memory_order_relaxed)) {
  }
}

double LatencyHistogram::PercentileMicros(double q) const {
  uint64_t counts[kBuckets];
  uint64_t total = 0;
  for (size_t i = 0; i < kBuckets; ++i) {
    counts[i] = buckets_[i].load(std::memory_order_relaxed);
    total += counts[i];
  }
  if (total == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  // Rank of the target sample (1-based), then walk buckets.
  const uint64_t rank =
      std::max<uint64_t>(1, static_cast<uint64_t>(q * total + 0.5));
  uint64_t seen = 0;
  for (size_t i = 0; i < kBuckets; ++i) {
    if (counts[i] == 0) continue;
    if (seen + counts[i] >= rank) {
      // Interpolate inside [lo, hi): bucket i holds values with i
      // significant bits, i.e. [2^(i-1), 2^i) for i >= 1 and {0} for 0.
      const double lo = i == 0 ? 0.0 : static_cast<double>(uint64_t{1} << (i - 1));
      const double hi = static_cast<double>(uint64_t{1} << i);
      const double frac =
          static_cast<double>(rank - seen) / static_cast<double>(counts[i]);
      // The interpolated position can overshoot the largest sample actually
      // recorded (bucket upper bounds are powers of two) — clamp so
      // reported percentiles never exceed the true max.
      const double max_seen =
          static_cast<double>(max_micros_.load(std::memory_order_relaxed));
      return std::min(lo + (hi - lo) * frac, max_seen);
    }
    seen += counts[i];
  }
  return static_cast<double>(max_micros_.load(std::memory_order_relaxed));
}

std::string LatencyHistogram::ToJson() const {
  std::string out = "{\"count\":";
  out += std::to_string(count());
  const uint64_t n = count();
  out += ",\"mean_ms\":";
  AppendMs(&out, n == 0 ? 0.0
                        : static_cast<double>(
                              sum_micros_.load(std::memory_order_relaxed)) /
                              static_cast<double>(n));
  out += ",\"p50_ms\":";
  AppendMs(&out, PercentileMicros(0.50));
  out += ",\"p95_ms\":";
  AppendMs(&out, PercentileMicros(0.95));
  out += ",\"p99_ms\":";
  AppendMs(&out, PercentileMicros(0.99));
  out += ",\"max_ms\":";
  AppendMs(&out,
           static_cast<double>(max_micros_.load(std::memory_order_relaxed)));
  out += "}";
  return out;
}

SchemeCounters::SchemeCounters() {
  for (const sa::ScoringScheme* scheme : sa::SchemeRegistry::Global().All()) {
    names_.emplace_back(scheme->name());
  }
  names_.emplace_back("(other)");
  counts_ = std::vector<std::atomic<uint64_t>>(names_.size());
}

void SchemeCounters::Record(std::string_view scheme_name) {
  for (size_t i = 0; i + 1 < names_.size(); ++i) {
    if (names_[i] == scheme_name) {
      counts_[i].fetch_add(1, std::memory_order_relaxed);
      return;
    }
  }
  counts_.back().fetch_add(1, std::memory_order_relaxed);
}

std::vector<std::pair<std::string, uint64_t>> SchemeCounters::NonZero()
    const {
  std::vector<std::pair<std::string, uint64_t>> out;
  for (size_t i = 0; i < names_.size(); ++i) {
    const uint64_t n = counts_[i].load(std::memory_order_relaxed);
    if (n != 0) {
      out.emplace_back(names_[i], n);
    }
  }
  return out;
}

std::string SchemeCounters::ToJson() const {
  std::string out = "{";
  bool first = true;
  for (size_t i = 0; i < names_.size(); ++i) {
    const uint64_t n = counts_[i].load(std::memory_order_relaxed);
    if (n == 0) continue;
    if (!first) out += ",";
    first = false;
    out += "\"";
    JsonAppendEscaped(&out, names_[i]);
    out += "\":";
    out += std::to_string(n);
  }
  out += "}";
  return out;
}

}  // namespace graft::server
