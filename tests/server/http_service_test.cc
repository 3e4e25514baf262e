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
//     service.

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

// Sends `raw` on a fresh connection and returns the status code of the
// reply (0 on any transport failure).
int RawExchange(uint16_t port, const std::string& raw) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return 0;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  int code = 0;
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0 &&
      SendAll(fd, raw).ok()) {
    std::string reply;
    char buf[512];
    ssize_t n;
    while ((n = ::recv(fd, buf, sizeof(buf), 0)) > 0) reply.append(buf, n);
    if (reply.rfind("HTTP/1.1 ", 0) == 0) code = std::atoi(reply.c_str() + 9);
  }
  ::close(fd);
  return code;
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

  EXPECT_EQ(RawExchange(service.port(), "POST /x HTTP/1.1\r\n\r\n"), 405);
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

}  // namespace
}  // namespace graft::server
