// The scatter-gather front end: an HTTP router process that fans /search
// out to N shard servers through ScatterGather and serves the merged,
// score-consistent ranking.
//
//   GET /search?q=<query>&scheme=<name>&k=<n>[&deadline_ms=<n>][&explain=1]
//       -> 200 JSON: the merged top-k over every shard, bit-identical to a
//          single-process run over the whole corpus when all shards
//          answer. The response always carries the degradation contract:
//          "degraded" (true when any shard did not contribute),
//          "shards_total"/"shards_ok" coverage, and a per-shard "shards"
//          outcome array (outcome, replica port, attempts, hedged,
//          results contributed, latency). &explain=1 adds the stats epoch
//          and the pinned statistics summary.
//       -> 502 Bad Gateway when every shard failed, or when any shard
//          failed under --policy fail (a partial answer is never silently
//          presented as complete).
//   GET /stats   -> 200 JSON cumulative router counters + percentiles.
//   GET /metrics -> 200 Prometheus exposition: router counters, gather
//                   counters (hedges, refreshes, partials), and per-shard
//                   wire counters + ejected-replica gauges.
//   GET /healthz -> 200 while any shard is reachable; reports per-shard
//                   healthy replica counts.
//
// Accept, admission, Retry-After on 503/504 and drain come from the shared
// server::HttpService skeleton (concurrency model in
// src/server/http_service.h); this class holds only the routes. The request
// deadline budget is handed to ScatterGather, which spends it across stats
// collection, retries, backoff, and hedges.

#ifndef GRAFT_ROUTER_ROUTER_SERVICE_H_
#define GRAFT_ROUTER_ROUTER_SERVICE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/status.h"
#include "router/scatter_gather.h"
#include "server/http.h"
#include "server/http_service.h"

namespace graft::router {

struct RouterOptions : server::HttpServiceOptions {
  // Fan-out behavior (shard client retry discipline, hedging, partial
  // policy, probe cadence).
  ScatterGatherOptions gather;
};

// Cumulative router request counters: the shared request outcomes, whose
// other-5xx counter (server_errors) the router exports as "bad_gateway",
// plus degraded 200s.
struct RouterStats : server::RequestOutcomes {
  // Degraded 200s: a partial merge was served under --policy partial.
  // Subset of responses_ok.
  std::atomic<uint64_t> partial_responses{0};
};

class RouterService {
 public:
  // `shard_replicas[i]` lists replica ports of shard i, in global doc-id
  // order (the contiguous corpus split).
  RouterService(std::vector<std::vector<uint16_t>> shard_replicas,
                RouterOptions options);
  ~RouterService();

  RouterService(const RouterService&) = delete;
  RouterService& operator=(const RouterService&) = delete;

  // Binds the listener, starts the poller thread + handler pool + the
  // replica readmission probe thread.
  Status Start();

  // Stops accepting, drains admitted requests, joins everything.
  void Shutdown();

  uint16_t port() const { return http_.port(); }
  const RouterStats& stats() const { return stats_; }
  ScatterGather& gather() { return *gather_; }
  const ScatterGather& gather() const { return *gather_; }

  // Routes one parsed request: the HttpService handler, exposed so tests
  // can drive it without sockets.
  server::Response Handle(const server::HttpRequest& request,
                          uint64_t queued_micros);

 private:
  server::Response HandleSearch(const server::HttpRequest& request,
                                uint64_t queued_micros);
  server::Response HandleStats() const;
  server::Response HandleMetrics() const;
  server::Response HandleHealthz() const;

  const RouterOptions options_;
  std::unique_ptr<ScatterGather> gather_;

  RouterStats stats_;
  server::HttpService http_{
      options_, &stats_,
      [this](const server::HttpRequest& request, uint64_t queued_micros) {
        return Handle(request, queued_micros);
      }};
};

}  // namespace graft::router

#endif  // GRAFT_ROUTER_ROUTER_SERVICE_H_
