// Closed-loop load generator for the embedded HTTP search service.
//
// Starts a SearchService in-process on an ephemeral port, then sweeps the
// number of closed-loop client threads (each thread issues a request,
// waits for the full response, and immediately issues the next one) over a
// fixed wall-clock window per configuration, in two arms:
//   * close — every request on a fresh connection (Connection: close);
//   * keep_alive — each client keeps one persistent connection.
// The request mix rotates through the paper's evaluation queries
// (Section 8) and all eight registered scoring schemes, top-k = 10.
//
// Reported per configuration: client-observed QPS and p50/p95/p99/max
// latency (measured request-to-last-byte, plus the connect in the close
// arm, which includes queueing in the service's admission window), the
// connections the server accepted, plus server-side counters so overload
// rejections (503) and deadline misses (504) are visible rather than
// silently folded into averages.
//
// Emits BENCH_server_load.json in the working directory.
//
// Environment:
//   GRAFT_BENCH_DOCS          corpus size (default 30000)
//   GRAFT_BENCH_LOAD_SECONDS  measurement window per configuration
//                             (default 2; raise for tighter tails)
//   GRAFT_BENCH_LOAD_CLIENTS  max client threads in the sweep (default 8)

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "core/engine.h"
#include "index/segmented_index.h"
#include "server/http.h"
#include "server/search_service.h"

namespace {

using graft::server::HttpConnection;
using graft::server::HttpGet;
using graft::server::UrlEncode;

constexpr const char* kSchemes[] = {
    "AnySum",         "AnyProd", "SumBest",    "Lucene",
    "JoinNormalized", "MeanSum", "EventModel", "BestSumMinDist"};

struct ConfigResult {
  const char* arm;          // "close" or "keep_alive"
  size_t clients;
  size_t requests;
  size_t errors;            // transport failures or non-200 responses
  double qps;
  double p50_ms;
  double p95_ms;
  double p99_ms;
  double max_ms;
  uint64_t server_ok;
  uint64_t server_rejected;  // 503 admission rejections
  uint64_t server_deadline;  // 504 deadline misses
  uint64_t connections;      // connections the server accepted
};

// One closed-loop client's next request: on a fresh connection
// (`connection` stays null), or on its persistent one, reopened after the
// server closed it.
graft::StatusOr<graft::server::HttpClientResponse> Request(
    uint16_t port, const std::string& target,
    std::unique_ptr<HttpConnection>* connection, bool keep_alive) {
  if (!keep_alive) return HttpGet(port, target);
  if (*connection == nullptr || !(*connection)->reusable()) {
    auto opened = HttpConnection::Open(port, 10000);
    if (!opened.ok()) return opened.status();
    *connection = std::move(*opened);
  }
  return (*connection)->Get(target, /*keep_alive=*/true);
}

double Percentile(std::vector<double>& sorted_ms, double p) {
  if (sorted_ms.empty()) return 0.0;
  const double rank = p * static_cast<double>(sorted_ms.size() - 1);
  const size_t lo = static_cast<size_t>(rank);
  const size_t hi = std::min(lo + 1, sorted_ms.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return sorted_ms[lo] * (1.0 - frac) + sorted_ms[hi] * frac;
}

size_t EnvCount(const char* name, size_t fallback) {
  const char* env = std::getenv(name);
  if (env != nullptr) {
    const long long parsed = std::atoll(env);
    if (parsed > 0) return static_cast<size_t>(parsed);
  }
  return fallback;
}

}  // namespace

int main() {
  using namespace graft;
  const index::InvertedIndex& index = bench::SharedBenchIndex();
  const double window_s =
      static_cast<double>(EnvCount("GRAFT_BENCH_LOAD_SECONDS", 2));
  const size_t max_clients = EnvCount("GRAFT_BENCH_LOAD_CLIENTS", 8);

  constexpr size_t kSegments = 4;
  auto segmented = index::SegmentedIndex::BuildFromMonolithic(index,
                                                             kSegments);
  if (!segmented.ok()) {
    std::fprintf(stderr, "segmentation failed: %s\n",
                 segmented.status().ToString().c_str());
    return 1;
  }
  core::Engine engine(&index, &*segmented, /*extra_threads=*/kSegments - 1);

  server::ServiceOptions options;
  options.default_deadline_ms = 30000;  // measure latency, not deadline cuts
  server::SearchService service(&engine, options);
  const Status started = service.Start();
  if (!started.ok()) {
    std::fprintf(stderr, "service start failed: %s\n",
                 started.ToString().c_str());
    return 1;
  }

  // Pre-encode the request-target mix: paper queries × all schemes.
  std::vector<std::string> targets;
  for (const bench::PaperQuery& q : bench::kPaperQueries) {
    for (const char* scheme : kSchemes) {
      targets.push_back("/search?q=" + UrlEncode(q.text) +
                        "&scheme=" + std::string(scheme) + "&k=10");
    }
  }

  // Both arms sweep the same client counts.
  std::vector<std::pair<bool, size_t>> configs;  // (keep_alive, clients)
  for (const bool keep_alive : {false, true}) {
    for (size_t c = 1; c <= max_clients; c *= 2) {
      configs.emplace_back(keep_alive, c);
    }
  }

  std::printf("Server load sweep (%llu docs, %zu segments, %zu targets, "
              "%.0fs window)\n",
              static_cast<unsigned long long>(index.doc_count()), kSegments,
              targets.size(), window_s);
  std::printf("%10s %8s | %9s %10s %9s %9s %9s | %6s %6s %8s\n", "arm",
              "clients", "requests", "QPS", "p50(ms)", "p95(ms)", "p99(ms)",
              "errs", "503s", "conns");
  std::printf(
      "----------------------------------------------------------------------"
      "-------------------------\n");

  std::vector<ConfigResult> results;
  for (const auto& [keep_alive, clients] : configs) {
    // Warm-up: one pass over the mix so first-touch costs stay out of the
    // measured window.
    for (const std::string& target : targets) {
      auto r = HttpGet(service.port(), target);
      if (!r.ok() || r->status_code != 200) {
        std::fprintf(stderr, "warm-up failed on %s\n", target.c_str());
        return 1;
      }
    }

    const uint64_t ok_before = service.stats().responses_ok.load();
    const uint64_t rejected_before =
        service.stats().rejected_overload.load();
    const uint64_t deadline_before =
        service.stats().deadline_exceeded.load();
    const uint64_t connections_before =
        service.stats().connections_accepted.load();

    std::atomic<bool> stop{false};
    std::atomic<size_t> errors{0};
    std::vector<std::vector<double>> per_client_ms(clients);
    std::vector<std::thread> threads;
    const auto window_start = std::chrono::steady_clock::now();
    for (size_t c = 0; c < clients; ++c) {
      threads.emplace_back([&, c] {
        size_t i = c * 13;  // de-phase the clients across the mix
        std::unique_ptr<HttpConnection> connection;
        while (!stop.load(std::memory_order_relaxed)) {
          const std::string& target = targets[i++ % targets.size()];
          const auto start = std::chrono::steady_clock::now();
          auto r = Request(service.port(), target, &connection, keep_alive);
          const auto end = std::chrono::steady_clock::now();
          if (!r.ok() || r->status_code != 200) {
            errors.fetch_add(1, std::memory_order_relaxed);
            continue;
          }
          per_client_ms[c].push_back(
              std::chrono::duration<double, std::milli>(end - start)
                  .count());
        }
      });
    }
    std::this_thread::sleep_for(std::chrono::duration<double>(window_s));
    stop.store(true);
    for (std::thread& t : threads) t.join();
    const double elapsed_s = std::chrono::duration<double>(
                                 std::chrono::steady_clock::now() -
                                 window_start)
                                 .count();

    std::vector<double> latencies_ms;
    for (const std::vector<double>& v : per_client_ms)
      latencies_ms.insert(latencies_ms.end(), v.begin(), v.end());
    std::sort(latencies_ms.begin(), latencies_ms.end());

    ConfigResult result;
    result.arm = keep_alive ? "keep_alive" : "close";
    result.clients = clients;
    result.requests = latencies_ms.size();
    result.errors = errors.load();
    result.qps = elapsed_s > 0
                     ? static_cast<double>(latencies_ms.size()) / elapsed_s
                     : 0.0;
    result.p50_ms = Percentile(latencies_ms, 0.50);
    result.p95_ms = Percentile(latencies_ms, 0.95);
    result.p99_ms = Percentile(latencies_ms, 0.99);
    result.max_ms = latencies_ms.empty() ? 0.0 : latencies_ms.back();
    result.server_ok = service.stats().responses_ok.load() - ok_before;
    result.server_rejected =
        service.stats().rejected_overload.load() - rejected_before;
    result.server_deadline =
        service.stats().deadline_exceeded.load() - deadline_before;
    result.connections =
        service.stats().connections_accepted.load() - connections_before;
    results.push_back(result);
    std::printf("%10s %8zu | %9zu %10.1f %9.3f %9.3f %9.3f | %6zu %6llu %8llu\n",
                result.arm, result.clients, result.requests, result.qps,
                result.p50_ms, result.p95_ms, result.p99_ms, result.errors,
                static_cast<unsigned long long>(result.server_rejected),
                static_cast<unsigned long long>(result.connections));
  }

  service.Shutdown();

  const char* out_path = "BENCH_server_load.json";
  std::FILE* out = std::fopen(out_path, "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", out_path);
    return 1;
  }
  std::fprintf(out,
               "{\n  \"benchmark\": \"server_load\",\n"
               "  \"doc_count\": %llu,\n  \"segments\": %zu,\n"
               "  \"targets\": %zu,\n  \"window_seconds\": %.1f,\n",
               static_cast<unsigned long long>(index.doc_count()), kSegments,
               targets.size(), window_s);
  // Each in-flight query fans across kSegments engine workers.
  bench::WriteHostParallelismFields(out, kSegments);
  std::fprintf(out, "  \"configs\": [\n");
  for (size_t i = 0; i < results.size(); ++i) {
    const ConfigResult& r = results[i];
    std::fprintf(
        out,
        "    {\"arm\": \"%s\", \"clients\": %zu, \"requests\": %zu, "
        "\"qps\": %.2f, \"p50_ms\": %.4f, \"p95_ms\": %.4f, "
        "\"p99_ms\": %.4f, \"max_ms\": %.4f, \"errors\": %zu, "
        "\"server_ok\": %llu, \"server_rejected_503\": %llu, "
        "\"server_deadline_504\": %llu, \"connections\": %llu}%s\n",
        r.arm, r.clients, r.requests, r.qps, r.p50_ms, r.p95_ms, r.p99_ms,
        r.max_ms, r.errors, static_cast<unsigned long long>(r.server_ok),
        static_cast<unsigned long long>(r.server_rejected),
        static_cast<unsigned long long>(r.server_deadline),
        static_cast<unsigned long long>(r.connections),
        i + 1 < results.size() ? "," : "");
  }
  std::fprintf(out, "  ]\n}\n");
  std::fclose(out);
  std::printf("\nwrote %s\n", out_path);
  std::printf("Note: clients are closed-loop, so QPS saturates at "
              "(handler throughput × concurrency);\nbeyond saturation added "
              "clients raise latency, not QPS.\n");
  return 0;
}
