#include "server/http_service.h"

#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>

namespace graft::server {

namespace {

std::string RetryAfterHeader(unsigned seconds) {
  return "Retry-After: " + std::to_string(seconds) + "\r\n";
}

// Answers a request that will not be handled (admission rejection or
// shutdown) without ever reading it, and closes its connection. Closing
// with the client's request bytes still unread would send an RST that can
// destroy the 503 before the client reads it, so: write the response,
// half-close (FIN), then drain briefly until the client's FIN — bounded at
// ~50ms so a stalled peer cannot wedge the poller thread.
void RejectConnection(int fd, const std::string& body,
                      unsigned retry_after_s) {
  (void)WriteResponse(fd, 503, "application/json", body,
                      RetryAfterHeader(retry_after_s));
  ::shutdown(fd, SHUT_WR);
  char drain[1024];
  for (int spin = 0; spin < 50; ++spin) {
    const ssize_t n = ::recv(fd, drain, sizeof(drain), MSG_DONTWAIT);
    if (n == 0) break;  // clean FIN from the client
    if (n < 0) {
      if (errno != EAGAIN && errno != EWOULDBLOCK && errno != EINTR) break;
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }
  ::close(fd);
}

void AppendSeconds(std::string* out, double micros) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6f", micros / 1e6);
  *out += buf;
}

}  // namespace

int HttpCodeForStatus(const Status& status) {
  switch (status.code()) {
    case StatusCode::kInvalidArgument:
    case StatusCode::kOutOfRange:
      return 400;
    case StatusCode::kNotFound:
      return 404;
    default:
      return 500;
  }
}

std::string ErrorBody(const Status& status) {
  std::string body = "{\"error\":\"";
  JsonAppendEscaped(&body, StatusCodeName(status.code()));
  body += "\",\"message\":\"";
  JsonAppendEscaped(&body, status.message());
  body += "\"}";
  return body;
}

Response ErrorResponse(const Status& status) {
  Response response;
  response.status_code = HttpCodeForStatus(status);
  response.body = ErrorBody(status);
  return response;
}

uint64_t MicrosSince(Clock::time_point t0) {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(Clock::now() - t0)
          .count());
}

void AppendMsField(std::string* out, std::string_view name, double micros) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "\"%.*s\":%.3f",
                static_cast<int>(name.size()), name.data(), micros / 1000.0);
  *out += buf;
}

void AppendMetric(std::string* out, std::string_view name,
                  std::string_view help, std::string_view type,
                  uint64_t value) {
  *out += "# HELP ";
  *out += name;
  *out += " ";
  *out += help;
  *out += "\n# TYPE ";
  *out += name;
  *out += " ";
  *out += type;
  *out += "\n";
  *out += name;
  *out += " ";
  *out += std::to_string(value);
  *out += "\n";
}

namespace {

// One row per outcome counter: its /stats key (the metric is
// <prefix><key>, plus "_total" unless the key already ends in it) and its
// help text. A null key stands for the service's own other-5xx spelling.
const struct {
  const char* key;
  const char* help;
  std::atomic<uint64_t> RequestOutcomes::*field;
} kOutcomeCounters[] = {
    {"requests_total", "HTTP requests received.",
     &RequestOutcomes::requests_total},
    {"connections_accepted", "TCP connections accepted.",
     &RequestOutcomes::connections_accepted},
    {"responses_ok", "2xx responses.", &RequestOutcomes::responses_ok},
    {"client_errors", "4xx responses.", &RequestOutcomes::client_errors},
    {nullptr, "5xx responses other than 503/504.",
     &RequestOutcomes::server_errors},
    {"rejected_overload", "503s from the admission cap or shutdown.",
     &RequestOutcomes::rejected_overload},
    {"deadline_exceeded", "504 responses.",
     &RequestOutcomes::deadline_exceeded},
    {"malformed_requests", "Unparsable HTTP requests.",
     &RequestOutcomes::malformed_requests},
};

}  // namespace

void RequestOutcomes::RecordResponseCode(int status_code) {
  std::atomic<uint64_t>* counter = &server_errors;
  if (status_code >= 200 && status_code < 300) {
    counter = &responses_ok;
  } else if (status_code >= 400 && status_code < 500) {
    counter = &client_errors;
  } else if (status_code == 503) {
    counter = &rejected_overload;
  } else if (status_code == 504) {
    counter = &deadline_exceeded;
  }
  counter->fetch_add(1, std::memory_order_relaxed);
}

std::string RequestOutcomes::ToJsonFields(const OutcomeNames& names) const {
  std::string out;
  for (const auto& row : kOutcomeCounters) {
    out += "\"";
    out += row.key != nullptr ? std::string_view(row.key) : names.other_5xx;
    out += "\":";
    out += std::to_string((this->*row.field).load(std::memory_order_relaxed));
    out += ",";
  }
  out += "\"search_latency\":";
  out += search_latency.ToJson();
  out += ",\"";
  out += names.scheme_counts;
  out += "\":";
  out += scheme_counts.ToJson();
  return out;
}

std::string RequestOutcomes::ToPrometheus(const OutcomeNames& names) const {
  const std::string prefix(names.metric_prefix);
  std::string out;
  for (const auto& row : kOutcomeCounters) {
    std::string name =
        prefix + (row.key != nullptr ? row.key : std::string(names.other_5xx));
    if (!name.ends_with("_total")) name += "_total";
    AppendMetric(&out, name, row.help, "counter",
                 (this->*row.field).load(std::memory_order_relaxed));
  }

  const std::string latency = prefix + "search_latency_seconds";
  out += "# HELP " + latency + " /search latency (queued + handled).\n";
  out += "# TYPE " + latency + " summary\n";
  const struct {
    const char* label;
    double q;
  } quantiles[] = {{"0.5", 0.5}, {"0.95", 0.95}, {"0.99", 0.99}};
  for (const auto& quantile : quantiles) {
    out += latency + "{quantile=\"" + quantile.label + "\"} ";
    AppendSeconds(&out, search_latency.PercentileMicros(quantile.q));
    out += "\n";
  }
  out += latency + "_sum ";
  AppendSeconds(&out, static_cast<double>(search_latency.sum_micros()));
  out += "\n" + latency + "_count " + std::to_string(search_latency.count()) +
         "\n";

  const auto schemes = scheme_counts.NonZero();
  if (!schemes.empty()) {
    const std::string by_scheme = prefix + "search_by_scheme_total";
    out += "# HELP " + by_scheme + " /search requests per scoring scheme.\n";
    out += "# TYPE " + by_scheme + " counter\n";
    for (const auto& [name, n] : schemes) {
      // Scheme names are registry identifiers ([A-Za-z0-9_-]) — no label
      // escaping needed beyond quoting.
      out += by_scheme + "{scheme=\"" + name + "\"} " + std::to_string(n) +
             "\n";
    }
  }
  return out;
}

HttpService::HttpService(const HttpServiceOptions& options,
                         RequestOutcomes* outcomes, Handler handler)
    : options_(options), outcomes_(outcomes), handler_(std::move(handler)) {}

HttpService::~HttpService() { Shutdown(); }

Status HttpService::Start() {
  if (started_) {
    return Status::FailedPrecondition("service already started");
  }
  GRAFT_RETURN_IF_ERROR(
      listener_.Bind(options_.port, /*backlog=*/128, /*nonblocking=*/true));
  epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
  wake_fd_ = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
  bool watched = epoll_fd_ >= 0 && wake_fd_ >= 0;
  for (const int fd : {listener_.fd(), wake_fd_}) {
    epoll_event event{};
    event.events = EPOLLIN;
    event.data.fd = fd;
    watched = watched && ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &event) == 0;
  }
  if (!watched) {
    const Status status = Status::IOError(
        "epoll/eventfd setup failed: " + std::string(std::strerror(errno)));
    if (epoll_fd_ >= 0) ::close(epoll_fd_);
    if (wake_fd_ >= 0) ::close(wake_fd_);
    epoll_fd_ = wake_fd_ = -1;
    listener_.Close();
    return status;
  }
  pool_ = std::make_unique<common::ThreadPool>(options_.handler_threads);
  started_at_ = Clock::now();
  started_ = true;
  poller_ = std::thread([this] { PollLoop(); });
  return Status::Ok();
}

void HttpService::Shutdown() {
  if (!started_) return;
  stopping_.store(true, std::memory_order_release);
  const uint64_t one = 1;
  (void)!::write(wake_fd_, &one, sizeof(one));
  if (poller_.joinable()) poller_.join();  // closes the idle connections
  listener_.Close();
  // Drain: every admitted request either has a handler queued or running
  // on the pool; wait until each has written its response.
  {
    std::unique_lock<std::mutex> lock(drain_mu_);
    drain_cv_.wait(lock, [this] {
      return inflight_.load(std::memory_order_acquire) == 0;
    });
  }
  pool_.reset();  // queue is empty by now; joins the workers
  ::close(epoll_fd_);  // no worker can re-arm into it anymore
  ::close(wake_fd_);
  epoll_fd_ = wake_fd_ = -1;
  started_ = false;
}

void HttpService::Release() {
  if (inflight_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
    std::lock_guard<std::mutex> lock(drain_mu_);
    drain_cv_.notify_all();
  }
}

void HttpService::PollLoop() {
  epoll_event events[64];
  while (!stopping_.load(std::memory_order_acquire)) {
    const int n = ::epoll_wait(epoll_fd_, events, 64, NextIdleTimeoutMs());
    for (int i = 0; i < n; ++i) {
      const int fd = events[i].data.fd;
      if (fd == wake_fd_) continue;  // Shutdown(): the loop test ends it
      if (fd == listener_.fd()) {
        AcceptPending();
        continue;
      }
      {
        std::lock_guard<std::mutex> lock(idle_mu_);
        const auto idle = idle_index_.find(fd);
        if (idle != idle_index_.end()) {
          idle_.erase(idle->second);
          idle_index_.erase(idle);
        }
      }
      Dispatch(fd);
    }
    CloseExpiredIdle();
  }
  // Idle connections close at once; busy ones close after their response.
  std::lock_guard<std::mutex> lock(idle_mu_);
  poller_stopped_ = true;
  for (const IdleConnection& idle : idle_) ::close(idle.fd);
  idle_.clear();
  idle_index_.clear();
}

void HttpService::AcceptPending() {
  while (true) {
    StatusOr<int> accepted = listener_.Accept(options_.io_timeout_ms);
    if (!accepted.ok()) {
      if (accepted.status().code() != StatusCode::kNotFound) {
        // Out of fds or similar: back off instead of spinning on a
        // listener that stays readable.
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
      }
      return;
    }
    outcomes_->connections_accepted.fetch_add(1, std::memory_order_relaxed);
    WatchIdle(*accepted, /*added=*/true);
  }
}

void HttpService::WatchIdle(int fd, bool added) {
  std::lock_guard<std::mutex> lock(idle_mu_);
  if (poller_stopped_) {
    ::close(fd);
    return;
  }
  // Indexed before it is armed: the poller may see it readable at once.
  idle_.push_back(IdleConnection{fd, Clock::now()});
  idle_index_[fd] = std::prev(idle_.end());
  epoll_event event{};
  event.events = EPOLLIN | EPOLLONESHOT;
  event.data.fd = fd;
  if (::epoll_ctl(epoll_fd_, added ? EPOLL_CTL_ADD : EPOLL_CTL_MOD, fd,
                  &event) != 0) {
    idle_.pop_back();
    idle_index_.erase(fd);
    ::close(fd);
  }
}

int HttpService::NextIdleTimeoutMs() {
  std::lock_guard<std::mutex> lock(idle_mu_);
  if (idle_.empty()) return options_.io_timeout_ms;
  const auto due = idle_.front().since +
                   std::chrono::milliseconds(options_.io_timeout_ms);
  const auto left =
      std::chrono::duration_cast<std::chrono::milliseconds>(due - Clock::now());
  return static_cast<int>(std::max<int64_t>(0, left.count() + 1));
}

void HttpService::CloseExpiredIdle() {
  const Clock::time_point cutoff =
      Clock::now() - std::chrono::milliseconds(options_.io_timeout_ms);
  std::lock_guard<std::mutex> lock(idle_mu_);
  while (!idle_.empty() && idle_.front().since <= cutoff) {
    ::close(idle_.front().fd);  // also drops its epoll registration
    idle_index_.erase(idle_.front().fd);
    idle_.pop_front();
  }
}

void HttpService::Dispatch(int fd) {
  // Request-level admission: bound queued + running handlers.
  const size_t inflight = inflight_.fetch_add(1, std::memory_order_acq_rel) + 1;
  if (inflight > options_.max_inflight ||
      stopping_.load(std::memory_order_acquire)) {
    char byte;
    if (::recv(fd, &byte, 1, MSG_PEEK | MSG_DONTWAIT) == 0) {
      ::close(fd);  // the client hung up while idle: no request to refuse
      Release();
      return;
    }
    // Fast rejection from the poller: no request read, no queue.
    const Status reason =
        inflight > options_.max_inflight
            ? Status::FailedPrecondition("server overloaded; retry")
            : Status::FailedPrecondition("server shutting down");
    outcomes_->requests_total.fetch_add(1, std::memory_order_relaxed);
    outcomes_->RecordResponseCode(503);
    RejectConnection(fd, ErrorBody(reason), options_.retry_after_s);
    Release();
    return;
  }
  const Clock::time_point admitted = Clock::now();
  pool_->Submit([this, fd, admitted] { ServeRequest(fd, admitted); });
}

void HttpService::ServeRequest(int fd, Clock::time_point admitted) {
  const uint64_t queued_micros = MicrosSince(admitted);
  ReadRequestInfo info;
  StatusOr<HttpRequest> request = ReadRequest(fd, &info);
  if (info.closed_before_request) {
    ::close(fd);  // a keep-alive client hung up between requests
    Release();
    return;
  }
  outcomes_->requests_total.fetch_add(1, std::memory_order_relaxed);
  Response response;
  bool keep_alive = false;
  if (!request.ok()) {
    outcomes_->malformed_requests.fetch_add(1, std::memory_order_relaxed);
    response.status_code = 400;
    response.body = ErrorBody(request.status());
  } else if (request->method != "GET") {
    // Whatever body a non-GET carries is unread: close after answering.
    response.status_code = 405;
    response.body =
        ErrorBody(Status::InvalidArgument("only GET is supported"));
  } else {
    keep_alive = WantsKeepAlive(*request) && !info.bytes_past_head;
    response = handler_(*request, queued_micros);
  }
  keep_alive = keep_alive && !stopping_.load(std::memory_order_acquire);
  const int code = response.status_code;
  outcomes_->RecordResponseCode(code);
  const bool written =
      WriteResponse(fd, code, response.content_type, response.body,
                    code == 503 || code == 504
                        ? RetryAfterHeader(options_.retry_after_s)
                        : std::string(),
                    keep_alive)
          .ok();
  // Released before the re-arm, so the client's next request on this
  // connection never finds its own previous one still holding a slot.
  Release();
  if (keep_alive && written) {
    WatchIdle(fd, /*added=*/false);
  } else {
    ::close(fd);
  }
}

}  // namespace graft::server
