// Small shared helpers for the repository benchmark: clocks, a seeded
// generator whose sequence does not depend on the standard library,
// percentile summaries, /proc readers and the result line.

#ifndef PERFBENCH_UTIL_H_
#define PERFBENCH_UTIL_H_

#include <sys/types.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

inline int64_t NanosBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(b - a).count();
}

// CPU time in nanoseconds: of the calling thread, and of another process
// (all its threads; -1 when it cannot be read). On a
// paravirtualised host with steal-time accounting none of these counts the
// time a virtual CPU was descheduled, and none counts waiting for a wake-up,
// so a cost measured in CPU time moves far less with the load of a shared
// host than a wall-clock time does.
int64_t ThreadCpuNanos();
int64_t ProcessCpuNanos(pid_t pid);

// CPU time still moves with a shared host: a fixed loop of integer
// arithmetic took from 24 to 45 ms of CPU time within one minute on the
// 4-vCPU host the benchmark was designed on, switching every second or so
// (other tenants on the sibling hyperthreads, clock frequency). HostSpeed()
// runs such a loop (5M draws of the seeded generator; kHostProbeNominalMs,
// its median CPU time on that host) and returns the nominal over the
// measured CPU time. CPU times measured right after, multiplied by it, are
// "normalized CPU time".
inline constexpr double kHostProbeNominalMs = 8.0;
double HostSpeed();

// splitmix64: every catalog and request-sequence draw goes through this,
// so the same seed yields the same inputs with any standard library.
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}
  uint64_t Next() {
    uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  // Uniform in [0, n); n > 0.
  uint64_t Below(uint64_t n) { return Next() % n; }
  // Uniform in [0, 1).
  double Unit() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }

 private:
  uint64_t state_;
};

// Derives an independent stream seed for one purpose of one run.
inline uint64_t SubSeed(uint64_t seed, uint64_t purpose) {
  Rng rng(seed * 0x2545f4914f6cdd1dULL + purpose);
  return rng.Next();
}

// Sorted-sample percentile (nearest rank); 0 for an empty sample.
inline double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  size_t rank = static_cast<size_t>(p * static_cast<double>(values.size()));
  if (rank >= values.size()) rank = values.size() - 1;
  return values[rank];
}

inline double Median(std::vector<double> values) {
  return Percentile(std::move(values), 0.5);
}

inline double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

// Reads a "<key>: <n> kB" line of /proc/<pid>/status ("self" for this
// process), in MiB; 0 when unavailable.
double ProcStatusMb(const std::string& pid, const char* key);

// Finds `"key":<number>` after `from` in a JSON text and returns the
// number; `fallback` when absent.
double JsonNumber(std::string_view json, std::string_view key,
                  double fallback = 0.0, size_t from = 0);

// Sums every `"key":<number>` occurrence in `json`.
double JsonNumberSum(std::string_view json, std::string_view key);

// One reported metric.
struct Metric {
  double value = 0.0;
  std::string unit;
};
using Metrics = std::map<std::string, Metric>;

// Prints the benchmark's result line (the last line of stdout).
void PrintResult(bool correct, uint64_t attempted, uint64_t failed,
                 const Metrics& metrics);

// Logs to stderr with a prefix; stdout carries only the result line.
void Log(const char* format, ...) __attribute__((format(printf, 1, 2)));

}  // namespace perfbench

#endif  // PERFBENCH_UTIL_H_
