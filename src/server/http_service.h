// The HTTP service skeleton shared by graft_server (server::SearchService)
// and graft_router (router::RouterService). It owns the listener, the poller
// thread, the handler pool, admission, drain and the request-outcome
// counters; a service supplies only a Handler that maps a parsed request
// to a Response.
//
// Concurrency model (DESIGN.md §2c):
//   * connections are persistent (HTTP/1.1 keep-alive). One poller thread
//     epolls the listener, every idle connection and an eventfd that
//     Shutdown() wakes it with. Idle connections are armed EPOLLONESHOT,
//     so a connection is either idle in the poller or owned by exactly
//     one worker. A new connection starts idle; a readable one carries
//     one request, which is admitted and handed to a common::ThreadPool
//     worker;
//   * after writing the response the worker re-arms the connection, or
//     closes it when the request said Connection: close, was HTTP/1.0
//     without keep-alive, was malformed or not a GET, arrived with
//     pipelined bytes behind it, or the service is stopping; the
//     response's Connection header says which;
//   * the poller closes a connection idle for io_timeout_ms; a client
//     that closes between requests is closed silently (no request, no
//     count);
//   * admission control is request-level: an atomic in-flight count
//     (running + queued handlers) is capped at max_inflight, and a
//     request over the cap gets an immediate 503 written from the poller
//     and its connection closed — an idle connection holds no slot, and
//     the pool queue can never grow beyond max_inflight, so overload
//     degrades into fast rejections, not latency collapse;
//   * per-request deadlines are measured from admission: the handler is
//     told how long the request queued, so a request whose deadline
//     elapsed while queued is answered 504 without doing the work, and
//     one that exceeds it during execution is answered 504 after the fact
//     (neither the engine nor a scatter-gather round is preemptible);
//   * only GET is served (405 otherwise, before the handler runs);
//   * 503 and 504 responses carry a Retry-After header so well-behaved
//     clients back off instead of hammering an overloaded server;
//   * every request runs read -> handler -> count -> write -> re-arm or
//     close: a response is counted before it is written, on the 503 path
//     too, so a client that has read a response sees it on /stats;
//   * Shutdown() stops accepting, closes idle connections at once, drains
//     every admitted request to a written response (with Connection:
//     close), then joins the pool — in-flight work is never dropped
//     (SIGINT/SIGTERM in graft_server/graft_router map to this).

#ifndef GRAFT_SERVER_HTTP_SERVICE_H_
#define GRAFT_SERVER_HTTP_SERVICE_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <unordered_map>

#include "common/status.h"
#include "common/thread_pool.h"
#include "server/http.h"
#include "server/server_stats.h"

namespace graft::server {

using Clock = std::chrono::steady_clock;

// The settings every HTTP front end shares; server::ServiceOptions and
// router::RouterOptions extend it.
struct HttpServiceOptions {
  // 0 = kernel-assigned ephemeral port (tests; read back via port()).
  uint16_t port = 0;
  // Handler pool workers. 0 = hardware concurrency.
  size_t handler_threads = 0;
  // Admission cap: max requests admitted but not yet answered
  // (queued + executing). Beyond it, requests get an immediate 503.
  size_t max_inflight = 64;
  // Deadline applied when the client sends no deadline_ms; client values
  // are clamped to max_deadline_ms.
  uint64_t default_deadline_ms = 2000;
  uint64_t max_deadline_ms = 30000;
  // k applied when the client sends no k (0 = all matching documents).
  size_t default_top_k = 10;
  size_t max_top_k = 10000;
  // Per-connection socket send/receive timeout, and how long a
  // keep-alive connection may sit idle before the service closes it.
  int io_timeout_ms = 5000;
  // Seconds advertised in the Retry-After header of 503/504 responses.
  unsigned retry_after_s = 1;
};

// A routed response before serialization.
struct Response {
  int status_code = 200;
  std::string content_type = "application/json";
  std::string body;
};

// Maps a library Status to the HTTP code the service answers with:
// InvalidArgument/OutOfRange -> 400, NotFound -> 404, everything else 500.
int HttpCodeForStatus(const Status& status);

// {"error":"<code name>","message":"..."} body for an error response.
std::string ErrorBody(const Status& status);

// The HttpCodeForStatus code with an ErrorBody.
Response ErrorResponse(const Status& status);

uint64_t MicrosSince(Clock::time_point t0);

// Appends "<name>":<micros/1000 with 3 decimals>.
void AppendMsField(std::string* out, std::string_view name, double micros);

// Appends one unlabeled Prometheus sample with its HELP and TYPE lines.
void AppendMetric(std::string* out, std::string_view name,
                  std::string_view help, std::string_view type,
                  uint64_t value);

// How one service spells the shared outcome series: the fields are the
// same, but /stats keys and /metrics names are part of each service's
// wire contract.
struct OutcomeNames {
  std::string_view metric_prefix;  // "graft_" or "graft_router_"
  std::string_view other_5xx;      // /stats key + metric stem of server_errors
  std::string_view scheme_counts;  // /stats key of scheme_counts
};

// The request-outcome counters both services keep. They are disjoint:
// responses_ok + client_errors + server_errors + rejected_overload +
// deadline_exceeded == requests_total once all in-flight requests have
// drained. connections_accepted stands apart: requests_total /
// connections_accepted is how many requests a connection carried.
// Relaxed atomics throughout: /stats is an observability snapshot, not an
// invariant.
struct RequestOutcomes {
  std::atomic<uint64_t> requests_total{0};     // requests received
  std::atomic<uint64_t> connections_accepted{0};
  std::atomic<uint64_t> responses_ok{0};       // 2xx
  std::atomic<uint64_t> client_errors{0};      // 4xx
  std::atomic<uint64_t> server_errors{0};      // 5xx except 503/504
  std::atomic<uint64_t> rejected_overload{0};  // 503 (admission/shutdown)
  std::atomic<uint64_t> deadline_exceeded{0};  // 504
  std::atomic<uint64_t> malformed_requests{0};  // unparsable HTTP (also 4xx)
  LatencyHistogram search_latency;  // /search only, all codes
  SchemeCounters scheme_counts;

  // Classifies a response code into exactly one outcome counter:
  // 2xx -> responses_ok, 4xx -> client_errors, 503 -> rejected_overload,
  // 504 -> deadline_exceeded, other 5xx -> server_errors.
  void RecordResponseCode(int status_code);

  // The /stats fields, without the enclosing braces:
  // "requests_total":n,...,"search_latency":{...},"<scheme_counts>":{...}
  std::string ToJsonFields(const OutcomeNames& names) const;

  // Prometheus text exposition (version 0.0.4): one counter per outcome,
  // a <prefix>search_latency_seconds summary (quantile labels + _sum and
  // _count, in seconds), and one <prefix>search_by_scheme_total sample
  // per scheme label.
  std::string ToPrometheus(const OutcomeNames& names) const;
};

// Records queued + handled latency into a histogram when it goes out of
// scope, so every exit of a /search handler is counted exactly once.
class LatencyScope {
 public:
  LatencyScope(LatencyHistogram* histogram, uint64_t queued_micros)
      : histogram_(histogram), queued_micros_(queued_micros) {}
  ~LatencyScope() { histogram_->Record(elapsed_micros()); }

  LatencyScope(const LatencyScope&) = delete;
  LatencyScope& operator=(const LatencyScope&) = delete;

  // Queued time plus time since construction.
  uint64_t elapsed_micros() const {
    return queued_micros_ + MicrosSince(start_);
  }

 private:
  LatencyHistogram* const histogram_;
  const uint64_t queued_micros_;
  const Clock::time_point start_ = Clock::now();
};

class HttpService {
 public:
  // Answers one parsed GET request. `queued_micros` is how long the
  // request waited between admission and handling. Runs on a pool worker.
  using Handler =
      std::function<Response(const HttpRequest& request,
                             uint64_t queued_micros)>;

  // `outcomes` must outlive the service.
  HttpService(const HttpServiceOptions& options, RequestOutcomes* outcomes,
              Handler handler);
  ~HttpService();

  HttpService(const HttpService&) = delete;
  HttpService& operator=(const HttpService&) = delete;

  // Binds the listener (failing fast when the port is taken) and starts
  // the poller thread + handler pool.
  Status Start();

  // Stops accepting, closes idle connections, drains all admitted
  // requests, joins every thread. Idempotent; called by the destructor if
  // still running.
  void Shutdown();

  // Valid after Start(); the actual bound port.
  uint16_t port() const { return listener_.port(); }

  // Admitted but unanswered requests.
  size_t inflight() const { return inflight_.load(std::memory_order_relaxed); }

  // Whole seconds since Start().
  uint64_t uptime_s() const { return MicrosSince(started_at_) / 1000000; }

 private:
  struct IdleConnection {
    int fd;
    Clock::time_point since;
  };

  void PollLoop();
  void AcceptPending();
  // Admits the request on a readable connection, or answers it 503.
  void Dispatch(int fd);
  void ServeRequest(int fd, Clock::time_point admitted);
  // Hands `fd` to the poller as idle (`added` for a new connection), or
  // closes it once the poller has stopped.
  void WatchIdle(int fd, bool added);
  // Milliseconds until the oldest idle connection times out.
  int NextIdleTimeoutMs();
  void CloseExpiredIdle();
  // Ends one admission; the last one out wakes Shutdown's drain.
  void Release();

  const HttpServiceOptions options_;
  RequestOutcomes* const outcomes_;
  const Handler handler_;

  TcpListener listener_;
  std::atomic<bool> stopping_{false};
  bool started_ = false;
  Clock::time_point started_at_;

  // Admission/drain accounting.
  std::atomic<size_t> inflight_{0};
  std::mutex drain_mu_;
  std::condition_variable drain_cv_;

  int epoll_fd_ = -1;
  int wake_fd_ = -1;  // eventfd: Shutdown() wakes the poller
  // Idle connections, oldest first (they all share io_timeout_ms), indexed
  // by fd. Workers add, the poller removes.
  std::mutex idle_mu_;
  std::list<IdleConnection> idle_;
  std::unordered_map<int, std::list<IdleConnection>::iterator> idle_index_;
  bool poller_stopped_ = false;  // guarded by idle_mu_

  // Last: their threads use every member above.
  std::unique_ptr<common::ThreadPool> pool_;
  std::thread poller_;
};

}  // namespace graft::server

#endif  // GRAFT_SERVER_HTTP_SERVICE_H_
