// Minimal dependency-free HTTP/1.1 plumbing for the embedded search
// service: a TCP listener, a hardened request-head parser, and a small
// blocking client (HttpConnection) used by the router, tests and the load
// generator.
//
// Scope is deliberately narrow — exactly what a GET-only JSON service
// needs:
//   * requests: method + target + version, headers, no body support
//     (a non-zero Content-Length or any Transfer-Encoding is rejected);
//   * responses: status line + fixed headers + Content-Length body, with
//     Connection: keep-alive or close — Content-Length framing is what
//     lets one connection carry request after request;
//   * every malformed input maps to a Status — the parser never crashes,
//     never allocates unboundedly (request heads are capped), and never
//     trusts lengths from the wire.

#ifndef GRAFT_SERVER_HTTP_H_
#define GRAFT_SERVER_HTTP_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>

#include "common/status.h"

namespace graft::server {

// Largest request head (request line + headers + blank line) the server
// will buffer before answering 431-style with InvalidArgument.
inline constexpr size_t kMaxRequestHeadBytes = 16 * 1024;

struct HttpRequest {
  std::string method;                          // "GET"
  std::string version;                         // "HTTP/1.1" or "HTTP/1.0"
  std::string path;                            // decoded, e.g. "/search"
  std::map<std::string, std::string> params;   // decoded query parameters
  std::map<std::string, std::string> headers;  // keys lower-cased
};

// Percent-decodes a URL component ('+' becomes space). Invalid escapes are
// an error, not a pass-through: a client that sends "%zz" gets a 400.
StatusOr<std::string> UrlDecode(std::string_view text);

// Parses everything up to (not including) the blank line that ends the
// request head. Enforces: a well-formed request line, HTTP/1.0 or /1.1,
// CRLF or LF line endings, "name: value" headers. Query parameters are
// split on '&' and '=' and percent-decoded.
StatusOr<HttpRequest> ParseRequestHead(std::string_view head);

// Whether the client lets the connection carry another request: HTTP/1.1
// unless it sent "Connection: close", HTTP/1.0 only with
// "Connection: keep-alive".
bool WantsKeepAlive(const HttpRequest& request);

// Serializes a response with Content-Length and a Connection header that
// says keep-alive or close. `extra_headers`, if non-empty, is spliced
// verbatim into the header block and must be CRLF-terminated (e.g.
// "Retry-After: 1\r\n").
std::string SerializeResponse(int status_code, std::string_view content_type,
                              std::string_view body,
                              std::string_view extra_headers = {},
                              bool keep_alive = false);

// Reason phrase for the handful of codes the service emits ("OK",
// "Bad Request", ...); "Unknown" otherwise.
std::string_view StatusReason(int status_code);

// Writes all of `data` to `fd`, retrying short writes and EINTR, with
// SIGPIPE suppressed (MSG_NOSIGNAL + a process-wide SIG_IGN installed by
// the transport). The single write path shared by the server side
// (WriteResponse) and the client side (HttpConnection):
// a peer that disappears mid-response surfaces as Status::IOError on this
// connection, never as a process-killing signal.
Status SendAll(int fd, std::string_view data);

// Idempotently installs SIG_IGN for SIGPIPE. Bind() and
// HttpConnection::Open() call it;
// multi-process front ends (graft_server, graft_router) inherit the
// protection through their first socket operation.
void IgnoreSigpipeOnce();

// Appends `text` to `out` with JSON string escaping (quotes, backslash,
// control characters). Shared by the stats and search serializers.
void JsonAppendEscaped(std::string* out, std::string_view text);

// An IPv4 listener. Shutdown protocol: Interrupt() may be called from any
// thread and unblocks a pending Accept (which then returns an error);
// Close() must only be called once no Accept is concurrently running
// (e.g. after joining the accept thread) — it releases the fd.
class TcpListener {
 public:
  TcpListener() = default;
  ~TcpListener();

  TcpListener(const TcpListener&) = delete;
  TcpListener& operator=(const TcpListener&) = delete;

  // Binds 127.0.0.1:`port` (0 = kernel-assigned ephemeral port) and
  // listens with `backlog`. A `nonblocking` listener's Accept returns
  // NotFound instead of waiting when no connection is pending (for a
  // caller that polls fd()).
  Status Bind(uint16_t port, int backlog = 128, bool nonblocking = false);

  // The bound port (valid after a successful Bind).
  uint16_t port() const { return port_; }

  // The listening socket, for polling (valid after a successful Bind).
  int fd() const { return fd_; }

  // Takes one connection, blocking unless the listener is nonblocking;
  // returns the connected (blocking) socket fd, or an error after
  // Close(). The accepted socket carries `io_timeout_ms` send/receive
  // timeouts so a stalled peer cannot wedge a worker, and TCP_NODELAY.
  StatusOr<int> Accept(int io_timeout_ms = 5000) const;

  // Thread-safe: unblocks a concurrent Accept without releasing the fd.
  void Interrupt();

  // Releases the fd. NOT safe concurrently with Accept.
  void Close();

 private:
  int fd_ = -1;
  uint16_t port_ = 0;
};

// What ReadRequest saw on the wire besides the request itself.
struct ReadRequestInfo {
  // The peer closed (or reset) the connection before sending a byte (the
  // returned status is an IOError): a keep-alive client hanging up
  // between requests, not a malformed request.
  bool closed_before_request = false;
  // Bytes past the end of the head were read (a pipelined request).
  // They are not kept, so the caller must close after answering.
  bool bytes_past_head = false;
};

// Reads a request head from `fd` (until the blank line, capped at
// kMaxRequestHeadBytes) and parses it. Does not close the fd.
StatusOr<HttpRequest> ReadRequest(int fd, ReadRequestInfo* info = nullptr);

// Writes the full serialized response to `fd`. Does not close the fd.
Status WriteResponse(int fd, int status_code, std::string_view content_type,
                     std::string_view body,
                     std::string_view extra_headers = {},
                     bool keep_alive = false);

// --- client side ---

struct HttpClientResponse {
  int status_code = 0;
  std::string body;
  std::map<std::string, std::string> headers;  // keys lower-cased
};

// One blocking client connection to 127.0.0.1. Responses are read by
// their Content-Length (to the end of the stream without one), so the
// connection carries request after request until either side says
// Connection: close or an exchange fails. Not thread-safe: one request at
// a time.
class HttpConnection {
 public:
  // Connects to `port`; `timeout_ms` bounds the connect and every later
  // send and receive until SetTimeout changes it.
  static StatusOr<std::unique_ptr<HttpConnection>> Open(uint16_t port,
                                                        int timeout_ms);
  ~HttpConnection();

  HttpConnection(const HttpConnection&) = delete;
  HttpConnection& operator=(const HttpConnection&) = delete;

  Status SetTimeout(int timeout_ms);

  // Sends one GET of the raw request-target `target`
  // ("/search?q=foo%20bar&k=10") and reads its response. With
  // `keep_alive` false the request says Connection: close. On failure,
  // `*peer_closed` (when non-null) says whether the peer had closed the
  // connection before any response byte arrived — on a reused connection
  // that means the server closed it while idle, and the request was not
  // served. A timeout never sets it.
  StatusOr<HttpClientResponse> Get(std::string_view target, bool keep_alive,
                                   bool* peer_closed = nullptr);

  // Whether the connection can carry another request: every exchange so
  // far succeeded and neither side said Connection: close.
  bool reusable() const { return reusable_; }

 private:
  explicit HttpConnection(int fd) : fd_(fd) {}

  const int fd_;
  bool reusable_ = true;
};

// One GET on a fresh connection that says Connection: close. `timeout_ms`
// bounds connect, send, and receive individually.
StatusOr<HttpClientResponse> HttpGet(uint16_t port, std::string_view target,
                                     int timeout_ms = 10000);

// Percent-encodes a query-parameter value.
std::string UrlEncode(std::string_view text);

}  // namespace graft::server

#endif  // GRAFT_SERVER_HTTP_H_
