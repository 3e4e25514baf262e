// The load generator's HTTP/1.1 client: one connection per client,
// reused whenever the server allows it.
//
// Every request says `Connection: keep-alive`. The socket stays open when
// the response allows it and is closed after a response that carries
// `Connection: close` (or an HTTP/1.0 response without keep-alive); the
// next request then reconnects. The client counts the connections it
// opens, so connections per request shows what the server's transport
// does without the benchmark changing.

#ifndef PERFBENCH_HTTP_CLIENT_H_
#define PERFBENCH_HTTP_CLIENT_H_

#include <cstdint>
#include <string>
#include <string_view>

namespace perfbench {

struct HttpReply {
  int status = 0;       // 0 = transport error
  std::string body;
  std::string error;    // transport error detail
};

class HttpClient {
 public:
  explicit HttpClient(uint16_t port, int timeout_ms = 10000)
      : port_(port), timeout_ms_(timeout_ms) {}
  ~HttpClient() { Close(); }
  HttpClient(const HttpClient&) = delete;
  HttpClient& operator=(const HttpClient&) = delete;

  // One GET of `target`. A request on a reused socket that fails before
  // any response byte arrives (the server closed it while idle) is
  // retried once on a fresh connection.
  HttpReply Get(std::string_view target);

  uint64_t connections_opened() const { return connections_opened_; }

 private:
  bool Connect(std::string* error);
  void Close();
  // Sends the request and reads one response. `*no_bytes` is set when
  // the failure happened before any response byte was read.
  HttpReply RoundTrip(std::string_view target, bool* no_bytes);

  const uint16_t port_;
  const int timeout_ms_;
  int fd_ = -1;
  std::string buffer_;  // bytes read past the previous response
  uint64_t connections_opened_ = 0;
};

// Extracts the `"results":[...]` fragment of a /search body ("" if none).
std::string ResultsFragment(std::string_view body);

}  // namespace perfbench

#endif  // PERFBENCH_HTTP_CLIENT_H_
