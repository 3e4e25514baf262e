#include "loadgen.h"

#include <algorithm>
#include <atomic>
#include <thread>

#include "http_client.h"
#include "util.h"

namespace perfbench {

std::vector<double> PhaseStats::Latencies(int cls) const {
  std::vector<double> out;
  out.reserve(samples.size());
  for (const Sample& s : samples) {
    if (s.ok && (cls < 0 || s.cls == cls)) out.push_back(s.latency_ms);
  }
  return out;
}

std::vector<double> PhaseStats::CpuCosts(int cls) const {
  std::vector<double> out;
  out.reserve(samples.size());
  for (const Sample& s : samples) {
    if (s.ok && (cls < 0 || s.cls == cls)) out.push_back(s.cpu_ms);
  }
  return out;
}

double PhaseStats::LagP99() const {
  std::vector<double> lags;
  lags.reserve(samples.size());
  for (const Sample& s : samples) lags.push_back(s.lag_ms);
  return Percentile(std::move(lags), 0.99);
}

double PhaseStats::CompletedPerSecond() const {
  return elapsed_s > 0
             ? static_cast<double>(samples.size() - failed) / elapsed_s
             : 0.0;
}

size_t RequestStream::Take(size_t n) {
  const size_t first = next;
  next += n;
  return first;
}

namespace {

void Merge(std::vector<PhaseStats>& parts, PhaseStats* out) {
  for (PhaseStats& part : parts) {
    out->samples.insert(out->samples.end(), part.samples.begin(),
                        part.samples.end());
    out->failed += part.failed;
    out->connections += part.connections;
  }
}

}  // namespace

PhaseStats OpenLoop(uint16_t port, RequestStream* stream, double rate,
                    double duration_s, size_t threads) {
  const size_t total = std::max<size_t>(1, static_cast<size_t>(rate * duration_s));
  const size_t first = stream->Take(total);
  std::atomic<size_t> next{0};
  std::vector<PhaseStats> parts(threads);
  const Clock::time_point start = Clock::now() + std::chrono::milliseconds(2);
  const auto interval = std::chrono::duration<double>(1.0 / rate);
  std::vector<std::thread> workers;
  for (size_t t = 0; t < threads; ++t) {
    workers.emplace_back([&, t] {
      HttpClient client(port);
      PhaseStats& part = parts[t];
      part.samples.reserve(total / threads + 16);
      for (size_t i = next.fetch_add(1); i < total; i = next.fetch_add(1)) {
        const Clock::time_point due =
            start + std::chrono::duration_cast<Clock::duration>(
                        interval * static_cast<double>(i));
        std::this_thread::sleep_until(due);
        const Clock::time_point sent = Clock::now();
        const uint32_t query = stream->At(first + i);
        const HttpReply reply = client.Get(stream->targets[query]);
        const Clock::time_point done = Clock::now();
        Sample sample;
        sample.latency_ms = NanosBetween(due, done) / 1e6;
        sample.lag_ms = NanosBetween(due, sent) / 1e6;
        sample.cls = static_cast<uint8_t>(stream->catalog->queries[query].cls);
        sample.ok = reply.status == 200;
        if (!sample.ok) ++part.failed;
        part.samples.push_back(sample);
      }
      part.connections = client.connections_opened();
    });
  }
  for (std::thread& worker : workers) worker.join();
  PhaseStats stats;
  stats.elapsed_s = SecondsSince(start);
  Merge(parts, &stats);
  return stats;
}

PhaseStats ClosedLoop(size_t callers, RequestStream* stream,
                      double duration_s, size_t max_calls,
                      const std::function<bool(size_t, size_t)>& fn,
                      const std::function<int64_t()>& server_cpu_ns) {
  std::atomic<size_t> calls{0};
  std::vector<PhaseStats> parts(callers);
  const Clock::time_point start = Clock::now();
  const Clock::time_point stop =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(duration_s));
  const size_t base = stream->next;
  std::vector<std::thread> threads;
  for (size_t c = 0; c < callers; ++c) {
    threads.emplace_back([&, c] {
      PhaseStats& part = parts[c];
      while (true) {
        const size_t n = calls.fetch_add(1);
        if (n >= max_calls || Clock::now() >= stop) break;
        const size_t position = base + n;
        const uint32_t query = stream->At(position);
        const int64_t server0 = server_cpu_ns ? server_cpu_ns() : 0;
        const int64_t cpu0 = ThreadCpuNanos();
        const Clock::time_point t0 = Clock::now();
        const bool ok = fn(c, position);
        const Clock::time_point t1 = Clock::now();
        const int64_t cpu1 = ThreadCpuNanos();
        const int64_t server1 = server_cpu_ns ? server_cpu_ns() : 0;
        Sample sample;
        sample.latency_ms = NanosBetween(t0, t1) / 1e6;
        sample.cpu_ms = static_cast<double>(cpu1 - cpu0 + server1 - server0) / 1e6;
        sample.cls = static_cast<uint8_t>(stream->catalog->queries[query].cls);
        sample.ok = ok;
        if (!ok) ++part.failed;
        part.samples.push_back(sample);
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  PhaseStats stats;
  stats.elapsed_s = SecondsSince(start);
  Merge(parts, &stats);
  stream->next = base + stats.samples.size();
  return stats;
}

}  // namespace perfbench
