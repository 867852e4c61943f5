// Minimal blocking HTTP/1.1 GET over loopback TCP: one request per
// connection, read to EOF (`hef serve` closes after every response, so no
// keep-alive or chunked decoding is needed).

#ifndef HEF_BENCH_HTTP_CLIENT_H_
#define HEF_BENCH_HTTP_CLIENT_H_

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstdint>
#include <cstdlib>
#include <string>

namespace hef::bench {

struct HttpResult {
  bool transport_ok = false;  // connected and got a status line back
  int status = 0;             // HTTP status code when transport_ok
  std::string body;
};

inline HttpResult HttpGet(const std::string& host, int port,
                          const std::string& target, int timeout_ms) {
  HttpResult result;
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return result;
  timeval tv{};
  tv.tv_sec = timeout_ms / 1000;
  tv.tv_usec = (timeout_ms % 1000) * 1000;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1 ||
      ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return result;
  }
  const std::string request = "GET " + target + " HTTP/1.1\r\nHost: " + host +
                              "\r\nConnection: close\r\n\r\n";
  std::size_t sent = 0;
  while (sent < request.size()) {
    const ssize_t n =
        ::send(fd, request.data() + sent, request.size() - sent, 0);
    if (n <= 0) {
      ::close(fd);
      return result;
    }
    sent += static_cast<std::size_t>(n);
  }
  std::string raw;
  char buf[4096];
  for (;;) {
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n <= 0) break;
    raw.append(buf, static_cast<std::size_t>(n));
  }
  ::close(fd);
  if (raw.compare(0, 5, "HTTP/") != 0) return result;
  const std::size_t sp = raw.find(' ');
  if (sp == std::string::npos || sp + 4 > raw.size()) return result;
  result.status = std::atoi(raw.c_str() + sp + 1);
  const std::size_t body_at = raw.find("\r\n\r\n");
  if (body_at != std::string::npos) result.body = raw.substr(body_at + 4);
  result.transport_ok = result.status >= 100;
  return result;
}

}  // namespace hef::bench

#endif  // HEF_BENCH_HTTP_CLIENT_H_
