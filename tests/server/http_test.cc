// HTTP plumbing units: URL decoding, request-head parsing (including the
// hardening paths — every malformed input must come back as a Status),
// response serialization, JSON escaping, and the keep-alive rules on both
// ends of a connection (WantsKeepAlive, ReadRequest, HttpConnection).

#include "server/http.h"

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <string>
#include <thread>
#include <vector>

namespace graft::server {
namespace {

TEST(UrlDecodeTest, PassThroughAndPlus) {
  auto decoded = UrlDecode("abc-def_~.x+y");
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(*decoded, "abc-def_~.x y");
}

TEST(UrlDecodeTest, PercentEscapes) {
  auto decoded = UrlDecode("%28windows%20emulator%29WINDOW%5B50%5D");
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(*decoded, "(windows emulator)WINDOW[50]");
}

TEST(UrlDecodeTest, RejectsTruncatedEscape) {
  EXPECT_FALSE(UrlDecode("abc%2").ok());
  EXPECT_FALSE(UrlDecode("abc%").ok());
}

TEST(UrlDecodeTest, RejectsInvalidHex) {
  EXPECT_FALSE(UrlDecode("%zz").ok());
  EXPECT_FALSE(UrlDecode("%4g").ok());
}

TEST(UrlEncodeTest, RoundTripsThroughDecode) {
  const std::string original = "(foss | \"free software\")WINDOW[50] 100%";
  auto decoded = UrlDecode(UrlEncode(original));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(*decoded, original);
}

TEST(ParseRequestHeadTest, ParsesLineParamsAndHeaders) {
  auto request = ParseRequestHead(
      "GET /search?q=free%20software&k=10&scheme=MeanSum HTTP/1.1\r\n"
      "Host: localhost\r\n"
      "X-Trace:  abc \r\n"
      "\r\n");
  ASSERT_TRUE(request.ok()) << request.status();
  EXPECT_EQ(request->method, "GET");
  EXPECT_EQ(request->path, "/search");
  EXPECT_EQ(request->params.at("q"), "free software");
  EXPECT_EQ(request->params.at("k"), "10");
  EXPECT_EQ(request->params.at("scheme"), "MeanSum");
  EXPECT_EQ(request->headers.at("host"), "localhost");
  EXPECT_EQ(request->headers.at("x-trace"), "abc");  // trimmed, key lowered
}

TEST(ParseRequestHeadTest, AcceptsBareLfLineEndings) {
  auto request = ParseRequestHead("GET /healthz HTTP/1.0\nHost: x\n\n");
  ASSERT_TRUE(request.ok()) << request.status();
  EXPECT_EQ(request->path, "/healthz");
}

TEST(ParseRequestHeadTest, ValuelessAndEmptyParams) {
  auto request = ParseRequestHead("GET /search?q=&flag&&a=1 HTTP/1.1\r\n\r\n");
  ASSERT_TRUE(request.ok()) << request.status();
  EXPECT_EQ(request->params.at("q"), "");
  EXPECT_EQ(request->params.at("flag"), "");
  EXPECT_EQ(request->params.at("a"), "1");
}

TEST(ParseRequestHeadTest, RejectsMalformedInputs) {
  // No line terminator at all.
  EXPECT_FALSE(ParseRequestHead("GET /x HTTP/1.1").ok());
  // Too few / too many request-line tokens.
  EXPECT_FALSE(ParseRequestHead("GET /x\r\n\r\n").ok());
  EXPECT_FALSE(ParseRequestHead("GET /x HTTP/1.1 extra\r\n\r\n").ok());
  // Unsupported version.
  EXPECT_FALSE(ParseRequestHead("GET /x HTTP/2.0\r\n\r\n").ok());
  EXPECT_FALSE(ParseRequestHead("GET /x SPDY\r\n\r\n").ok());
  // Non-origin-form target.
  EXPECT_FALSE(ParseRequestHead("GET http://a/b HTTP/1.1\r\n\r\n").ok());
  // Bad percent-escape in target.
  EXPECT_FALSE(ParseRequestHead("GET /x?q=%zz HTTP/1.1\r\n\r\n").ok());
  // Header line without a colon, and empty header name.
  EXPECT_FALSE(
      ParseRequestHead("GET /x HTTP/1.1\r\nbroken header\r\n\r\n").ok());
  EXPECT_FALSE(ParseRequestHead("GET /x HTTP/1.1\r\n: v\r\n\r\n").ok());
  // Empty parameter name.
  EXPECT_FALSE(ParseRequestHead("GET /x?=v HTTP/1.1\r\n\r\n").ok());
}

TEST(SerializeResponseTest, WellFormed) {
  const std::string wire = SerializeResponse(200, "application/json", "{}");
  EXPECT_EQ(wire,
            "HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n"
            "Content-Length: 2\r\nConnection: close\r\n\r\n{}");
}

TEST(SerializeResponseTest, ReasonPhrases) {
  EXPECT_EQ(StatusReason(503), "Service Unavailable");
  EXPECT_EQ(StatusReason(504), "Gateway Timeout");
  EXPECT_EQ(StatusReason(418), "Unknown");
}

TEST(JsonAppendEscapedTest, EscapesControlAndSpecials) {
  std::string out;
  JsonAppendEscaped(&out, "a\"b\\c\nd\te\x01" "f");
  EXPECT_EQ(out, "a\\\"b\\\\c\\nd\\te\\u0001f");
}

TEST(ListenerTest, EphemeralBindReportsPort) {
  TcpListener listener;
  ASSERT_TRUE(listener.Bind(0).ok());
  EXPECT_GT(listener.port(), 0);
}

TEST(ListenerTest, ClientServerRoundTrip) {
  TcpListener listener;
  ASSERT_TRUE(listener.Bind(0).ok());
  std::thread server([&] {
    auto fd = listener.Accept();
    ASSERT_TRUE(fd.ok()) << fd.status();
    auto request = ReadRequest(*fd);
    ASSERT_TRUE(request.ok()) << request.status();
    EXPECT_EQ(request->path, "/ping");
    ASSERT_TRUE(WriteResponse(*fd, 200, "text/plain", "pong").ok());
    ::close(*fd);
  });
  auto response = HttpGet(listener.port(), "/ping");
  server.join();
  ASSERT_TRUE(response.ok()) << response.status();
  EXPECT_EQ(response->status_code, 200);
  EXPECT_EQ(response->body, "pong");
}

TEST(ListenerTest, BindFailsFastWithClearErrorWhenPortTaken) {
  TcpListener first;
  ASSERT_TRUE(first.Bind(0).ok());
  TcpListener second;
  const Status status = second.Bind(first.port());
  EXPECT_FALSE(status.ok());
  // The message must name the port and say what to do — the graft_server /
  // graft_router startup error a misconfigured operator actually reads.
  EXPECT_NE(status.message().find(std::to_string(first.port())),
            std::string::npos)
      << status;
  EXPECT_NE(status.message().find("already in use"), std::string::npos)
      << status;
  first.Close();
}

TEST(SendAllTest, PeerClosingMidResponseDoesNotKillTheProcess) {
  // Regression for the transport hardening: a peer that disappears while
  // the server is still writing must surface as an IOError on that fd —
  // not as a SIGPIPE that terminates the process. A large body guarantees
  // the kernel send buffer fills and the write hits the dead socket.
  TcpListener listener;
  ASSERT_TRUE(listener.Bind(0).ok());
  std::thread server([&] {
    auto fd = listener.Accept(2000);
    ASSERT_TRUE(fd.ok()) << fd.status();
    auto request = ReadRequest(*fd);
    ASSERT_TRUE(request.ok()) << request.status();
    // 32 MiB: far beyond any socket buffer, so SendAll is mid-flight when
    // the client hangs up.
    const std::string huge(32 * 1024 * 1024, 'x');
    const Status sent = WriteResponse(*fd, 200, "text/plain", huge);
    // Either the peer died mid-write (IOError) or the kernel buffered a
    // surprising amount (ok); both are fine — being alive is the test.
    EXPECT_TRUE(sent.ok() || sent.code() == StatusCode::kIOError)
        << sent;
    ::close(*fd);
  });

  // A raw client that sends the request and slams the connection shut
  // without reading a single response byte.
  {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    ASSERT_GE(fd, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(listener.port());
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr),
                        sizeof(addr)),
              0);
    const std::string request = "GET /never-read HTTP/1.1\r\n\r\n";
    ASSERT_TRUE(SendAll(fd, request).ok());
    // RST on close (SO_LINGER 0) so the server's in-flight writes fail
    // immediately instead of filling a dead socket's window.
    linger hard{.l_onoff = 1, .l_linger = 0};
    ::setsockopt(fd, SOL_SOCKET, SO_LINGER, &hard, sizeof(hard));
    ::close(fd);
  }
  server.join();
  // The process is alive to run this line — SIGPIPE did not fire.
  SUCCEED();
}

TEST(WantsKeepAliveTest, VersionAndConnectionHeader) {
  const auto wants = [](const char* head) {
    auto request = ParseRequestHead(head);
    EXPECT_TRUE(request.ok()) << head;
    return request.ok() && WantsKeepAlive(*request);
  };
  EXPECT_TRUE(wants("GET /x HTTP/1.1\r\n\r\n"));
  EXPECT_FALSE(wants("GET /x HTTP/1.1\r\nConnection: close\r\n\r\n"));
  EXPECT_FALSE(wants("GET /x HTTP/1.1\r\nConnection: Upgrade, CLOSE\r\n\r\n"));
  EXPECT_FALSE(wants("GET /x HTTP/1.0\r\n\r\n"));
  EXPECT_TRUE(wants("GET /x HTTP/1.0\r\nConnection: Keep-Alive\r\n\r\n"));
}

TEST(SerializeResponseTest, KeepAliveSaysSo) {
  EXPECT_NE(SerializeResponse(200, "text/plain", "", "", /*keep_alive=*/true)
                .find("\r\nConnection: keep-alive\r\n"),
            std::string::npos);
}

// Serves each of `replies` (raw bytes) on one accepted connection, one per
// request read, then closes it.
void ServeRaw(TcpListener* listener, std::vector<std::string> replies) {
  auto fd = listener->Accept(2000);
  ASSERT_TRUE(fd.ok()) << fd.status();
  for (const std::string& reply : replies) {
    if (!ReadRequest(*fd).ok()) break;
    ASSERT_TRUE(SendAll(*fd, reply).ok());
  }
  ::close(*fd);
}

TEST(HttpConnectionTest, ReadsByContentLengthAndHonoursClose) {
  TcpListener listener;
  ASSERT_TRUE(listener.Bind(0).ok());
  std::thread server(ServeRaw, &listener, std::vector<std::string>{
      SerializeResponse(200, "text/plain", "one", "", /*keep_alive=*/true),
      SerializeResponse(404, "text/plain", "two", "", /*keep_alive=*/false)});
  auto connection = HttpConnection::Open(listener.port(), 2000);
  ASSERT_TRUE(connection.ok()) << connection.status();
  auto first = (*connection)->Get("/a", /*keep_alive=*/true);
  ASSERT_TRUE(first.ok()) << first.status();
  EXPECT_EQ(first->status_code, 200);
  EXPECT_EQ(first->body, "one");
  EXPECT_TRUE((*connection)->reusable());
  auto second = (*connection)->Get("/b", /*keep_alive=*/true);
  ASSERT_TRUE(second.ok()) << second.status();
  EXPECT_EQ(second->status_code, 404);
  EXPECT_EQ(second->body, "two");
  EXPECT_FALSE((*connection)->reusable());  // the server said close
  server.join();
}

TEST(HttpConnectionTest, ReportsAPeerThatClosedBeforeReplying) {
  TcpListener listener;
  ASSERT_TRUE(listener.Bind(0).ok());
  std::thread server(ServeRaw, &listener, std::vector<std::string>{
      SerializeResponse(200, "text/plain", "one", "", /*keep_alive=*/true)});
  auto connection = HttpConnection::Open(listener.port(), 2000);
  ASSERT_TRUE(connection.ok()) << connection.status();
  ASSERT_TRUE((*connection)->Get("/a", /*keep_alive=*/true).ok());
  server.join();  // the server closed the connection after one reply
  bool peer_closed = false;
  auto stale = (*connection)->Get("/b", /*keep_alive=*/true, &peer_closed);
  EXPECT_FALSE(stale.ok());
  EXPECT_TRUE(peer_closed);
  EXPECT_FALSE((*connection)->reusable());
}

TEST(HttpConnectionTest, BytesPastTheBodyStopReuse) {
  TcpListener listener;
  ASSERT_TRUE(listener.Bind(0).ok());
  std::thread server(ServeRaw, &listener, std::vector<std::string>{
      SerializeResponse(200, "text/plain", "one", "", /*keep_alive=*/true) +
      "junk"});
  auto connection = HttpConnection::Open(listener.port(), 2000);
  ASSERT_TRUE(connection.ok()) << connection.status();
  auto reply = (*connection)->Get("/a", /*keep_alive=*/true);
  ASSERT_TRUE(reply.ok()) << reply.status();
  EXPECT_EQ(reply->body, "one");
  // "junk" arrived with the reply (one send on loopback): the stream is
  // out of step, so the connection must not carry another request.
  EXPECT_FALSE((*connection)->reusable());
  server.join();
}

TEST(ReadRequestTest, ReportsCleanCloseAndPipelinedBytes) {
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  ASSERT_TRUE(
      SendAll(fds[1], "GET /a HTTP/1.1\r\n\r\nGET /b HTTP/1.1\r\n\r\n").ok());
  ::shutdown(fds[1], SHUT_WR);
  ReadRequestInfo info;
  auto first = ReadRequest(fds[0], &info);
  ASSERT_TRUE(first.ok()) << first.status();
  EXPECT_EQ(first->path, "/a");
  EXPECT_TRUE(info.bytes_past_head);
  EXPECT_FALSE(info.closed_before_request);
  auto after = ReadRequest(fds[0], &info);  // the rest was consumed
  EXPECT_FALSE(after.ok());
  EXPECT_TRUE(info.closed_before_request);
  ::close(fds[0]);
  ::close(fds[1]);
}

TEST(ReadRequestTest, RejectsRequestBodies) {
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  ASSERT_TRUE(SendAll(fds[1],
                      "GET /a HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n")
                  .ok());
  auto request = ReadRequest(fds[0]);
  EXPECT_FALSE(request.ok());
  EXPECT_EQ(request.status().code(), StatusCode::kInvalidArgument);
  ::close(fds[0]);
  ::close(fds[1]);
}

}  // namespace
}  // namespace graft::server
