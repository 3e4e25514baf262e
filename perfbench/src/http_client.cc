#include "http_client.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <cctype>
#include <cerrno>
#include <cstdlib>
#include <cstring>

#include "server/http.h"

namespace perfbench {

namespace {

std::string Lower(std::string_view text) {
  std::string out(text);
  for (char& c : out) c = static_cast<char>(std::tolower(c));
  return out;
}

}  // namespace

bool HttpClient::Connect(std::string* error) {
  fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd_ < 0) {
    *error = std::string("socket: ") + std::strerror(errno);
    return false;
  }
  timeval tv{};
  tv.tv_sec = timeout_ms_ / 1000;
  tv.tv_usec = (timeout_ms_ % 1000) * 1000;
  ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  ::setsockopt(fd_, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
  const int one = 1;
  ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port_);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    *error = std::string("connect: ") + std::strerror(errno);
    Close();
    return false;
  }
  ++connections_opened_;
  buffer_.clear();
  return true;
}

void HttpClient::Close() {
  if (fd_ >= 0) {
    // Abortive close (RST): neither end keeps the socket in TIME_WAIT. On
    // loopback every connection shares one address pair, and the tens of
    // thousands of TIME_WAIT sockets one run would leave for 60 s slow the
    // next run's connects (measured: p50 doubled at ~30k).
    const linger abort{1, 0};
    ::setsockopt(fd_, SOL_SOCKET, SO_LINGER, &abort, sizeof(abort));
    ::close(fd_);
  }
  fd_ = -1;
  buffer_.clear();
}

HttpReply HttpClient::Get(std::string_view target) {
  const bool reused = fd_ >= 0;
  bool no_bytes = false;
  HttpReply reply = RoundTrip(target, &no_bytes);
  if (reply.status == 0 && reused && no_bytes) {
    reply = RoundTrip(target, &no_bytes);
  }
  return reply;
}

HttpReply HttpClient::RoundTrip(std::string_view target, bool* no_bytes) {
  HttpReply reply;
  *no_bytes = true;
  if (fd_ < 0 && !Connect(&reply.error)) return reply;
  std::string request = "GET ";
  request += target;
  request += " HTTP/1.1\r\nHost: 127.0.0.1\r\nConnection: keep-alive\r\n\r\n";
  const graft::Status sent = graft::server::SendAll(fd_, request);
  if (!sent.ok()) {
    reply.error = sent.ToString();
    Close();
    return reply;
  }
  // Read the head.
  size_t head_end = std::string::npos;
  char chunk[16384];
  while ((head_end = buffer_.find("\r\n\r\n")) == std::string::npos) {
    const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) {
      reply.error = n == 0 ? "connection closed before response"
                           : std::string("recv: ") + std::strerror(errno);
      Close();
      return reply;
    }
    *no_bytes = false;
    buffer_.append(chunk, static_cast<size_t>(n));
  }
  *no_bytes = false;
  const std::string head = buffer_.substr(0, head_end);
  buffer_.erase(0, head_end + 4);
  // Status line: HTTP/1.x NNN reason
  const size_t space = head.find(' ');
  if (head.compare(0, 5, "HTTP/") != 0 || space == std::string::npos) {
    reply.error = "malformed status line";
    Close();
    return reply;
  }
  const bool http10 = head.compare(0, 8, "HTTP/1.0") == 0;
  const int status = std::atoi(head.c_str() + space + 1);
  size_t content_length = 0;
  bool have_length = false;
  bool close_after = http10;
  size_t line_start = head.find("\r\n");
  while (line_start != std::string::npos) {
    line_start += 2;
    const size_t line_end = head.find("\r\n", line_start);
    const std::string line = head.substr(
        line_start, line_end == std::string::npos ? std::string::npos
                                                  : line_end - line_start);
    const size_t colon = line.find(':');
    if (colon != std::string::npos) {
      const std::string name = Lower(line.substr(0, colon));
      size_t v = colon + 1;
      while (v < line.size() && line[v] == ' ') ++v;
      const std::string value = Lower(line.substr(v));
      if (name == "content-length") {
        content_length = std::strtoull(value.c_str(), nullptr, 10);
        have_length = true;
      } else if (name == "connection") {
        if (value == "close") close_after = true;
        if (value == "keep-alive") close_after = false;
      }
    }
    line_start = line_end;
  }
  if (!have_length) {
    // Without a length the body runs to the end of the stream.
    close_after = true;
    content_length = SIZE_MAX;
  }
  while (buffer_.size() < content_length) {
    const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
    if (n < 0 && errno == EINTR) continue;
    if (n == 0 && !have_length) break;
    if (n <= 0) {
      reply.error = "connection closed mid-body";
      Close();
      return reply;
    }
    buffer_.append(chunk, static_cast<size_t>(n));
  }
  const size_t body_size = std::min(content_length, buffer_.size());
  reply.body = buffer_.substr(0, body_size);
  buffer_.erase(0, body_size);
  reply.status = status;
  if (close_after) Close();
  return reply;
}

std::string ResultsFragment(std::string_view body) {
  const size_t at = body.find("\"results\":[");
  if (at == std::string_view::npos) return "";
  const size_t end = body.find(']', at);
  if (end == std::string_view::npos) return "";
  return std::string(body.substr(at, end - at + 1));
}

}  // namespace perfbench
