#include "server/http_service.h"

#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>

namespace graft::server {

namespace {

std::string RetryAfterHeader(unsigned seconds) {
  return "Retry-After: " + std::to_string(seconds) + "\r\n";
}

// Answers a connection that will not be handled (admission rejection or
// shutdown) without ever reading the request. Closing with the client's
// request bytes still unread would send an RST that can destroy the 503
// before the client reads it, so: write the response, half-close (FIN),
// then drain briefly until the client's FIN — bounded at ~50ms so a
// stalled peer cannot wedge the accept thread.
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
    {"requests_total", "HTTP connections accepted.",
     &RequestOutcomes::requests_total},
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
  GRAFT_RETURN_IF_ERROR(listener_.Bind(options_.port));
  pool_ = std::make_unique<common::ThreadPool>(options_.handler_threads);
  started_at_ = Clock::now();
  started_ = true;
  accept_thread_ = std::thread([this] { AcceptLoop(); });
  return Status::Ok();
}

void HttpService::Shutdown() {
  if (!started_) return;
  stopping_.store(true, std::memory_order_release);
  listener_.Interrupt();  // unblocks the pending accept
  if (accept_thread_.joinable()) accept_thread_.join();
  listener_.Close();  // safe: no Accept can be running anymore
  // Drain: every admitted connection either has a handler queued or
  // running on the pool; wait until each has written its response.
  {
    std::unique_lock<std::mutex> lock(drain_mu_);
    drain_cv_.wait(lock, [this] {
      return inflight_.load(std::memory_order_acquire) == 0;
    });
  }
  pool_.reset();  // queue is empty by now; joins the workers
  started_ = false;
}

void HttpService::Release() {
  if (inflight_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
    std::lock_guard<std::mutex> lock(drain_mu_);
    drain_cv_.notify_all();
  }
}

void HttpService::AcceptLoop() {
  while (!stopping_.load(std::memory_order_acquire)) {
    StatusOr<int> accepted = listener_.Accept(options_.io_timeout_ms);
    if (!accepted.ok()) {
      // Accept fails persistently only when the listener is closed
      // (shutdown) or the process is out of fds; both end the loop.
      if (stopping_.load(std::memory_order_acquire)) break;
      // Transient failure (e.g. out of fds): back off instead of spinning.
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
      continue;
    }
    const int fd = *accepted;
    outcomes_->requests_total.fetch_add(1, std::memory_order_relaxed);

    // Connection-level admission: bound queued + running handlers.
    const size_t inflight =
        inflight_.fetch_add(1, std::memory_order_acq_rel) + 1;
    if (inflight > options_.max_inflight ||
        stopping_.load(std::memory_order_acquire)) {
      // Fast rejection from the accept thread: no request read, no queue.
      const Status reason =
          inflight > options_.max_inflight
              ? Status::FailedPrecondition("server overloaded; retry")
              : Status::FailedPrecondition("server shutting down");
      outcomes_->RecordResponseCode(503);
      RejectConnection(fd, ErrorBody(reason), options_.retry_after_s);
      Release();
      continue;
    }

    const Clock::time_point admitted = Clock::now();
    pool_->Submit([this, fd, admitted] { HandleConnection(fd, admitted); });
  }
}

void HttpService::HandleConnection(int fd, Clock::time_point admitted) {
  const uint64_t queued_micros = MicrosSince(admitted);
  StatusOr<HttpRequest> request = ReadRequest(fd);
  Response response;
  if (!request.ok()) {
    outcomes_->malformed_requests.fetch_add(1, std::memory_order_relaxed);
    response.status_code = 400;
    response.body = ErrorBody(request.status());
  } else if (request->method != "GET") {
    response.status_code = 405;
    response.body =
        ErrorBody(Status::InvalidArgument("only GET is supported"));
  } else {
    response = handler_(*request, queued_micros);
  }
  const int code = response.status_code;
  outcomes_->RecordResponseCode(code);
  (void)WriteResponse(fd, code, response.content_type, response.body,
                      code == 503 || code == 504
                          ? RetryAfterHeader(options_.retry_after_s)
                          : std::string());
  ::close(fd);
  Release();
}

}  // namespace graft::server
