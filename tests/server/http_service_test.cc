// HttpService: the accept / admission / drain skeleton under both
// SearchService and RouterService, driven through a fake handler over real
// sockets.
//
//   * admission — a connection over max_inflight gets a 503 with
//     Retry-After, counted as rejected_overload;
//   * counting — every response is counted before it is written, so the
//     counters are exact the moment the client has read its response;
//   * drain — Shutdown() answers every admitted request, queued ones too;
//   * hardening — an unparsable request is a 400 counted as malformed, a
//     non-GET a 405, and neither reaches the handler;
//   * startup — a busy port fails Start() fast;
//   * rendering — one JSON and one Prometheus renderer, spelled per
//     service;
//   * keep-alive — one connection carries many requests; Connection:
//     close, HTTP/1.0, idle timeout and Shutdown close it; a client that
//     hangs up between requests is no request; an idle connection holds
//     no admission slot; a pipelined pair is never silently dropped.

#include "server/http_service.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdlib>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace graft::server {
namespace {

// A handler that answers 200 once the gate opens, counting its calls.
class GatedHandler {
 public:
  explicit GatedHandler(bool open = true) : open_(open) {}

  HttpService::Handler handler() {
    return [this](const HttpRequest&, uint64_t) {
      entered_.fetch_add(1);
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [this] { return open_; });
      Response response;
      response.body = "{\"fake\":true}";
      return response;
    };
  }

  void Open() {
    std::lock_guard<std::mutex> lock(mu_);
    open_ = true;
    cv_.notify_all();
  }

  size_t entered() const { return entered_.load(); }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  bool open_;
  std::atomic<size_t> entered_{0};
};

// A raw client socket to 127.0.0.1:`port` whose reads give up after
// `timeout_ms`.
int RawConnect(uint16_t port, int timeout_ms = 3000) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  timeval tv{};
  tv.tv_sec = timeout_ms / 1000;
  tv.tv_usec = (timeout_ms % 1000) * 1000;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

// Everything the server sends on `fd` until it closes the connection.
// `closed` is false when the read timed out with the connection open.
struct RawReply {
  std::string text;
  bool closed = false;
  int code() const {
    return text.rfind("HTTP/1.1 ", 0) == 0 ? std::atoi(text.c_str() + 9) : 0;
  }
};

RawReply ReadUntilClosed(int fd) {
  RawReply reply;
  char buf[512];
  ssize_t n;
  while ((n = ::recv(fd, buf, sizeof(buf), 0)) > 0) reply.text.append(buf, n);
  reply.closed = n == 0;
  return reply;
}

// Sends `raw` on a fresh connection and reads until the server closes it.
RawReply RawExchange(uint16_t port, const std::string& raw) {
  RawReply reply;
  const int fd = RawConnect(port);
  if (fd < 0) return reply;
  if (SendAll(fd, raw).ok()) reply = ReadUntilClosed(fd);
  ::close(fd);
  return reply;
}

size_t Count(const std::string& text, const std::string& needle) {
  size_t n = 0;
  for (size_t at = text.find(needle); at != std::string::npos;
       at = text.find(needle, at + 1)) {
    ++n;
  }
  return n;
}

void WaitFor(const std::function<bool()>& done) {
  for (int spin = 0; spin < 2500 && !done(); ++spin) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
}

TEST(HttpServiceTest, OverCapGets503WithRetryAfterCountedBeforeWrite) {
  HttpServiceOptions options;
  options.max_inflight = 1;
  options.retry_after_s = 3;
  RequestOutcomes outcomes;
  GatedHandler gate(/*open=*/false);
  HttpService service(options, &outcomes, gate.handler());
  ASSERT_TRUE(service.Start().ok());

  // The first request is admitted and parks in the handler.
  StatusOr<HttpClientResponse> first = Status::FailedPrecondition("unsent");
  std::thread holder([&] { first = HttpGet(service.port(), "/x"); });
  WaitFor([&] { return gate.entered() == 1; });
  ASSERT_EQ(gate.entered(), 1u);

  auto rejected = HttpGet(service.port(), "/x");
  ASSERT_TRUE(rejected.ok()) << rejected.status();
  EXPECT_EQ(rejected->status_code, 503);
  const auto retry_after = rejected->headers.find("retry-after");
  ASSERT_NE(retry_after, rejected->headers.end());
  EXPECT_EQ(retry_after->second, "3");
  // Read right after the response: no sleep, no retry.
  EXPECT_EQ(outcomes.rejected_overload.load(), 1u);
  EXPECT_EQ(gate.entered(), 1u);  // the rejected request never ran

  gate.Open();
  holder.join();
  ASSERT_TRUE(first.ok()) << first.status();
  EXPECT_EQ(first->status_code, 200);
  EXPECT_EQ(outcomes.responses_ok.load(), 1u);
  EXPECT_EQ(outcomes.requests_total.load(), 2u);
  service.Shutdown();
}

TEST(HttpServiceTest, HandledResponsesAreCountedBeforeWrite) {
  RequestOutcomes outcomes;
  std::atomic<int> code{200};
  HttpService service(HttpServiceOptions{}, &outcomes,
                      [&code](const HttpRequest&, uint64_t) {
                        Response response;
                        response.status_code = code.load();
                        return response;
                      });
  ASSERT_TRUE(service.Start().ok());
  for (const int next : {200, 404, 500, 504}) {
    code.store(next);
    auto response = HttpGet(service.port(), "/x");
    ASSERT_TRUE(response.ok()) << response.status();
    EXPECT_EQ(response->status_code, next);
    // 504s carry Retry-After like 503s; other codes do not.
    EXPECT_EQ(response->headers.count("retry-after"), next == 504 ? 1u : 0u);
  }
  EXPECT_EQ(outcomes.responses_ok.load(), 1u);
  EXPECT_EQ(outcomes.client_errors.load(), 1u);
  EXPECT_EQ(outcomes.server_errors.load(), 1u);
  EXPECT_EQ(outcomes.deadline_exceeded.load(), 1u);
  EXPECT_EQ(outcomes.requests_total.load(), 4u);
  service.Shutdown();
}

TEST(HttpServiceTest, ShutdownDrainsEveryAdmittedRequest) {
  HttpServiceOptions options;
  options.handler_threads = 2;  // four clients: two run, two queue
  RequestOutcomes outcomes;
  GatedHandler gate(/*open=*/false);
  HttpService service(options, &outcomes, gate.handler());
  ASSERT_TRUE(service.Start().ok());
  const uint16_t port = service.port();

  constexpr size_t kClients = 4;
  std::atomic<size_t> ok_count{0};
  std::vector<std::thread> clients;
  for (size_t c = 0; c < kClients; ++c) {
    clients.emplace_back([&] {
      auto response = HttpGet(port, "/x");
      if (response.ok() && response->status_code == 200) ok_count.fetch_add(1);
    });
  }
  WaitFor([&] { return service.inflight() == kClients; });
  ASSERT_EQ(service.inflight(), kClients);

  // Shutdown blocks until the drain completes; open the gate meanwhile.
  std::thread opener([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    gate.Open();
  });
  service.Shutdown();
  opener.join();
  for (std::thread& t : clients) t.join();

  EXPECT_EQ(ok_count.load(), kClients);
  EXPECT_EQ(gate.entered(), kClients);
  EXPECT_EQ(outcomes.responses_ok.load(), kClients);
  EXPECT_EQ(service.inflight(), 0u);
  // The listener is gone: new connections fail outright.
  EXPECT_FALSE(HttpGet(port, "/x", /*timeout_ms=*/500).ok());
}

TEST(HttpServiceTest, UnparsableAndNonGetRequestsNeverReachTheHandler) {
  RequestOutcomes outcomes;
  GatedHandler gate;
  HttpService service(HttpServiceOptions{}, &outcomes, gate.handler());
  ASSERT_TRUE(service.Start().ok());

  // "GET not a path HTTP/1.1" has too many request-line tokens.
  auto garbage = HttpGet(service.port(), "not a path");
  ASSERT_TRUE(garbage.ok()) << garbage.status();
  EXPECT_EQ(garbage->status_code, 400);
  EXPECT_EQ(outcomes.malformed_requests.load(), 1u);
  EXPECT_EQ(outcomes.client_errors.load(), 1u);

  EXPECT_EQ(RawExchange(service.port(), "POST /x HTTP/1.1\r\n\r\n").code(),
            405);
  EXPECT_EQ(outcomes.client_errors.load(), 2u);
  EXPECT_EQ(outcomes.malformed_requests.load(), 1u);
  EXPECT_EQ(gate.entered(), 0u);
  service.Shutdown();
}

TEST(HttpServiceTest, StartFailsFastWhenPortTaken) {
  TcpListener squatter;
  ASSERT_TRUE(squatter.Bind(0).ok());
  HttpServiceOptions options;
  options.port = squatter.port();
  RequestOutcomes outcomes;
  GatedHandler gate;
  HttpService service(options, &outcomes, gate.handler());
  const auto start = std::chrono::steady_clock::now();
  const Status status = service.Start();
  EXPECT_FALSE(status.ok());
  EXPECT_NE(status.message().find("already in use"), std::string::npos)
      << status;
  EXPECT_LT(std::chrono::steady_clock::now() - start, std::chrono::seconds(1));
  service.Shutdown();  // a service that never started shuts down as a no-op
  squatter.Close();
}

TEST(HttpServiceTest, RenderersUseTheServiceSpelling) {
  RequestOutcomes outcomes;
  outcomes.requests_total.store(2);
  outcomes.RecordResponseCode(502);
  outcomes.RecordResponseCode(200);
  outcomes.search_latency.Record(1500);
  outcomes.scheme_counts.Record("MeanSum");
  const OutcomeNames names{"graft_router_", "bad_gateway", "by_scheme"};

  const std::string json = "{" + outcomes.ToJsonFields(names) + "}";
  for (const char* field :
       {"\"requests_total\":2", "\"responses_ok\":1", "\"bad_gateway\":1",
        "\"rejected_overload\":0", "\"malformed_requests\":0",
        "\"search_latency\":{\"count\":1", "\"by_scheme\":{\"MeanSum\":1}"}) {
    EXPECT_NE(json.find(field), std::string::npos) << field << " in " << json;
  }

  const std::string text = outcomes.ToPrometheus(names);
  for (const char* sample :
       {"graft_router_requests_total 2\n", "graft_router_responses_ok_total 1\n",
        "graft_router_bad_gateway_total 1\n",
        "graft_router_deadline_exceeded_total 0\n",
        "graft_router_malformed_requests_total 0\n",
        "graft_router_search_latency_seconds_sum 0.001500\n",
        "graft_router_search_latency_seconds_count 1\n",
        "graft_router_search_by_scheme_total{scheme=\"MeanSum\"} 1\n"}) {
    EXPECT_NE(text.find(sample), std::string::npos) << sample << " in " << text;
  }
  EXPECT_EQ(text.find("microseconds"), std::string::npos) << text;
}

TEST(HttpServiceTest, OneConnectionCarriesManyRequests) {
  RequestOutcomes outcomes;
  GatedHandler gate;
  HttpService service(HttpServiceOptions{}, &outcomes, gate.handler());
  ASSERT_TRUE(service.Start().ok());
  auto connection = HttpConnection::Open(service.port(), 2000);
  ASSERT_TRUE(connection.ok()) << connection.status();
  constexpr uint64_t kRequests = 5;
  for (uint64_t i = 0; i < kRequests; ++i) {
    auto response = (*connection)->Get("/x", /*keep_alive=*/true);
    ASSERT_TRUE(response.ok()) << response.status();
    EXPECT_EQ(response->status_code, 200);
    EXPECT_EQ(response->headers["connection"], "keep-alive");
    EXPECT_TRUE((*connection)->reusable());
  }
  EXPECT_EQ(outcomes.connections_accepted.load(), 1u);
  EXPECT_EQ(outcomes.requests_total.load(), kRequests);
  EXPECT_EQ(outcomes.responses_ok.load(), kRequests);
  service.Shutdown();
}

TEST(HttpServiceTest, CloseRequestsAndHttp10CloseTheConnection) {
  RequestOutcomes outcomes;
  GatedHandler gate;
  HttpService service(HttpServiceOptions{}, &outcomes, gate.handler());
  ASSERT_TRUE(service.Start().ok());
  for (const char* raw :
       {"GET /x HTTP/1.1\r\nConnection: close\r\n\r\n",
        "GET /x HTTP/1.0\r\n\r\n",
        "GET /x HTTP/1.1\r\nConnection: Upgrade, Close\r\n\r\n"}) {
    const RawReply reply = RawExchange(service.port(), raw);
    EXPECT_EQ(reply.code(), 200) << raw;
    EXPECT_TRUE(reply.closed) << raw;
    EXPECT_NE(reply.text.find("Connection: close\r\n"), std::string::npos)
        << reply.text;
  }
  // HTTP/1.0 that asks for keep-alive gets it.
  const int fd = RawConnect(service.port(), /*timeout_ms=*/300);
  ASSERT_GE(fd, 0);
  ASSERT_TRUE(
      SendAll(fd, "GET /x HTTP/1.0\r\nConnection: keep-alive\r\n\r\n").ok());
  const RawReply reply = ReadUntilClosed(fd);
  ::close(fd);
  EXPECT_EQ(reply.code(), 200);
  EXPECT_FALSE(reply.closed);
  EXPECT_NE(reply.text.find("Connection: keep-alive\r\n"), std::string::npos);
  EXPECT_EQ(outcomes.connections_accepted.load(), 4u);
  service.Shutdown();
}

TEST(HttpServiceTest, IdleConnectionClosedAfterIoTimeout) {
  HttpServiceOptions options;
  options.io_timeout_ms = 200;
  RequestOutcomes outcomes;
  GatedHandler gate;
  HttpService service(options, &outcomes, gate.handler());
  ASSERT_TRUE(service.Start().ok());
  const int fd = RawConnect(service.port(), /*timeout_ms=*/3000);
  ASSERT_GE(fd, 0);
  ASSERT_TRUE(SendAll(fd, "GET /x HTTP/1.1\r\n\r\n").ok());
  std::string reply;
  char buf[512];
  while (reply.find("{\"fake\":true}") == std::string::npos) {
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    ASSERT_GT(n, 0);
    reply.append(buf, n);
  }
  const auto idle_since = std::chrono::steady_clock::now();
  EXPECT_EQ(::recv(fd, buf, sizeof(buf), 0), 0);  // the server's FIN
  const auto idle = std::chrono::steady_clock::now() - idle_since;
  ::close(fd);
  EXPECT_GE(idle, std::chrono::milliseconds(150));
  EXPECT_LT(idle, std::chrono::milliseconds(2500));
  EXPECT_EQ(outcomes.requests_total.load(), 1u);
  EXPECT_EQ(outcomes.malformed_requests.load(), 0u);
  service.Shutdown();
}

TEST(HttpServiceTest, ClientCloseBetweenRequestsIsNotMalformed) {
  RequestOutcomes outcomes;
  GatedHandler gate;
  HttpService service(HttpServiceOptions{}, &outcomes, gate.handler());
  ASSERT_TRUE(service.Start().ok());
  {
    auto connection = HttpConnection::Open(service.port(), 2000);
    ASSERT_TRUE(connection.ok()) << connection.status();
    auto response = (*connection)->Get("/x", /*keep_alive=*/true);
    ASSERT_TRUE(response.ok()) << response.status();
  }  // hangs up after one request
  ::close(RawConnect(service.port()));  // hangs up before any request
  {
    // Resets (abortive close) after one request.
    const int fd = RawConnect(service.port());
    ASSERT_GE(fd, 0);
    ASSERT_TRUE(SendAll(fd, "GET /x HTTP/1.1\r\n\r\n").ok());
    char buf[512];
    ASSERT_GT(::recv(fd, buf, sizeof(buf), 0), 0);
    const linger abort{1, 0};
    ::setsockopt(fd, SOL_SOCKET, SO_LINGER, &abort, sizeof(abort));
    ::close(fd);
  }
  WaitFor([&] { return outcomes.connections_accepted.load() == 3; });
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  auto response = HttpGet(service.port(), "/x");
  ASSERT_TRUE(response.ok()) << response.status();
  EXPECT_EQ(outcomes.connections_accepted.load(), 4u);
  EXPECT_EQ(outcomes.requests_total.load(), 3u);
  EXPECT_EQ(outcomes.responses_ok.load(), 3u);
  EXPECT_EQ(outcomes.malformed_requests.load(), 0u);
  EXPECT_EQ(outcomes.client_errors.load(), 0u);
  service.Shutdown();
}

TEST(HttpServiceTest, IdleConnectionHoldsNoAdmissionSlot) {
  HttpServiceOptions options;
  options.max_inflight = 1;
  RequestOutcomes outcomes;
  GatedHandler gate;
  HttpService service(options, &outcomes, gate.handler());
  ASSERT_TRUE(service.Start().ok());
  auto idle = HttpConnection::Open(service.port(), 2000);
  ASSERT_TRUE(idle.ok()) << idle.status();
  ASSERT_TRUE((*idle)->Get("/x", /*keep_alive=*/true).ok());
  for (int i = 0; i < 3; ++i) {
    auto other = HttpGet(service.port(), "/x");
    ASSERT_TRUE(other.ok()) << other.status();
    EXPECT_EQ(other->status_code, 200);
  }
  auto again = (*idle)->Get("/x", /*keep_alive=*/true);
  ASSERT_TRUE(again.ok()) << again.status();
  EXPECT_EQ(again->status_code, 200);
  EXPECT_EQ(outcomes.rejected_overload.load(), 0u);
  service.Shutdown();
}

TEST(HttpServiceTest, ShutdownClosesIdleConnectionsAndDrainsWithClose) {
  HttpServiceOptions options;
  options.io_timeout_ms = 10000;
  RequestOutcomes outcomes;
  std::mutex mu;
  std::condition_variable cv;
  bool open = false;
  std::atomic<size_t> parked{0};
  HttpService service(options, &outcomes,
                      [&](const HttpRequest& request, uint64_t) {
                        if (request.path == "/slow") {
                          parked.fetch_add(1);
                          std::unique_lock<std::mutex> lock(mu);
                          cv.wait(lock, [&] { return open; });
                        }
                        return Response{};
                      });
  ASSERT_TRUE(service.Start().ok());
  // One connection idle after a request, one parked in the handler.
  const int idle_fd = RawConnect(service.port(), /*timeout_ms=*/5000);
  ASSERT_GE(idle_fd, 0);
  ASSERT_TRUE(SendAll(idle_fd, "GET /fast HTTP/1.1\r\n\r\n").ok());
  char buf[512];
  ASSERT_GT(::recv(idle_fd, buf, sizeof(buf), 0), 0);
  auto busy = HttpConnection::Open(service.port(), 5000);
  ASSERT_TRUE(busy.ok()) << busy.status();
  StatusOr<HttpClientResponse> slow = Status::FailedPrecondition("unsent");
  std::thread client(
      [&] { slow = (*busy)->Get("/slow", /*keep_alive=*/true); });
  WaitFor([&] { return parked.load() == 1; });
  ASSERT_EQ(parked.load(), 1u);

  const auto start = std::chrono::steady_clock::now();
  std::thread stopper([&] { service.Shutdown(); });
  // The idle connection is closed at once, not after io_timeout_ms.
  EXPECT_EQ(::recv(idle_fd, buf, sizeof(buf), 0), 0);
  EXPECT_LT(std::chrono::steady_clock::now() - start,
            std::chrono::milliseconds(2000));
  ::close(idle_fd);
  {
    std::lock_guard<std::mutex> lock(mu);
    open = true;
    cv.notify_all();
  }
  stopper.join();
  client.join();
  EXPECT_LT(std::chrono::steady_clock::now() - start,
            std::chrono::milliseconds(5000));
  ASSERT_TRUE(slow.ok()) << slow.status();
  EXPECT_EQ(slow->status_code, 200);
  EXPECT_EQ(slow->headers["connection"], "close");
  EXPECT_FALSE((*busy)->reusable());
}

TEST(HttpServiceTest, PipelinedPairIsNeverSilentlyDropped) {
  HttpServiceOptions options;
  options.io_timeout_ms = 500;  // ends the read if both are answered
  RequestOutcomes outcomes;
  GatedHandler gate;
  HttpService service(options, &outcomes, gate.handler());
  ASSERT_TRUE(service.Start().ok());
  const RawReply reply = RawExchange(
      service.port(), "GET /a HTTP/1.1\r\n\r\nGET /b HTTP/1.1\r\n\r\n");
  EXPECT_TRUE(reply.closed);
  const size_t answers = Count(reply.text, "HTTP/1.1 200 OK");
  if (answers == 1) {
    // Answered once, and the client is told to resend the other.
    EXPECT_EQ(Count(reply.text, "Connection: close\r\n"), 1u) << reply.text;
  } else {
    EXPECT_EQ(answers, 2u) << reply.text;
  }
  EXPECT_EQ(outcomes.requests_total.load(), answers);
  EXPECT_EQ(outcomes.malformed_requests.load(), 0u);
  service.Shutdown();
}

}  // namespace
}  // namespace graft::server
