#include "util.h"

#include <time.h>

#include <cmath>
#include <cstdarg>
#include <cstdlib>
#include <fstream>

namespace perfbench {

namespace {

// Keeps the probe's work observable, so it cannot be dropped.
volatile uint64_t probe_sink;

int64_t ClockNanos(clockid_t clock) {
  timespec ts{};
  if (::clock_gettime(clock, &ts) != 0) return -1;
  return static_cast<int64_t>(ts.tv_sec) * 1000000000 + ts.tv_nsec;
}

}  // namespace

int64_t ThreadCpuNanos() { return ClockNanos(CLOCK_THREAD_CPUTIME_ID); }

int64_t ProcessCpuNanos(pid_t pid) {
  clockid_t clock;
  if (pid <= 0 || ::clock_getcpuclockid(pid, &clock) != 0) return -1;
  return ClockNanos(clock);
}

double HostSpeed() {
  const int64_t start = ThreadCpuNanos();
  Rng rng(1);
  uint64_t acc = 0;
  for (int i = 0; i < 5000000; ++i) acc += rng.Next();
  probe_sink = acc;
  const double ms = static_cast<double>(ThreadCpuNanos() - start) / 1e6;
  return kHostProbeNominalMs / ms;
}

double ProcStatusMb(const std::string& pid, const char* key) {
  std::ifstream in("/proc/" + pid + "/status");
  std::string line;
  const std::string prefix = std::string(key) + ":";
  while (std::getline(in, line)) {
    if (line.compare(0, prefix.size(), prefix) == 0) {
      return std::strtod(line.c_str() + prefix.size(), nullptr) / 1024.0;
    }
  }
  return 0.0;
}

namespace {

std::string Needle(std::string_view key) {
  std::string needle = "\"";
  needle += key;
  needle += "\":";
  return needle;
}

}  // namespace

double JsonNumber(std::string_view json, std::string_view key,
                  double fallback, size_t from) {
  const std::string needle = Needle(key);
  const size_t at = json.find(needle, from);
  if (at == std::string_view::npos) return fallback;
  const std::string tail(json.substr(at + needle.size(), 32));
  char* end = nullptr;
  const double value = std::strtod(tail.c_str(), &end);
  return end == tail.c_str() ? fallback : value;
}

double JsonNumberSum(std::string_view json, std::string_view key) {
  const std::string needle = Needle(key);
  double sum = 0.0;
  for (size_t at = json.find(needle); at != std::string_view::npos;
       at = json.find(needle, at + needle.size())) {
    sum += JsonNumber(json, key, 0.0, at);
  }
  return sum;
}

void PrintResult(bool correct, uint64_t attempted, uint64_t failed,
                 const Metrics& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  bool first = true;
  char number[64];
  for (const auto& [name, metric] : metrics) {
    if (!first) out += ", ";
    first = false;
    const double value = std::isfinite(metric.value) ? metric.value : 0.0;
    std::snprintf(number, sizeof(number), "%.17g", value);
    out += "\"" + name + "\": {\"value\": " + number + ", \"unit\": \"" +
           metric.unit + "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
}

void Log(const char* format, ...) {
  std::fputs("[perfbench] ", stderr);
  va_list args;
  va_start(args, format);
  std::vfprintf(stderr, format, args);
  va_end(args);
  std::fputc('\n', stderr);
}

}  // namespace perfbench
