// Tests for the minimal HTTP/1.0 introspection server: exact and prefix
// route dispatch, 404s, ephemeral-port binding, the request counter, and
// idempotent stop.  The client side is a raw loopback socket speaking
// exactly what the server speaks (GET, Connection: close) — no HTTP
// library, same as a curl or a Prometheus scrape would look on the wire.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstdint>
#include <cstring>
#include <string>

#include "obs/manifest.hpp"
#include "obs/metrics.hpp"
#include "obs/status_server.hpp"

namespace {

using obs::MetricsRegistry;
using obs::StatusResponse;
using obs::StatusServer;

/// One blocking HTTP/1.0 GET against 127.0.0.1:port; returns the whole
/// response (status line, headers, body) or "" on connect failure.
std::string http_get(std::uint16_t port, const std::string& path) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return "";
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return "";
  }
  const std::string request = "GET " + path + " HTTP/1.0\r\n\r\n";
  std::size_t sent = 0;
  while (sent < request.size()) {
    const ssize_t n =
        ::send(fd, request.data() + sent, request.size() - sent, 0);
    if (n <= 0) {
      ::close(fd);
      return "";
    }
    sent += static_cast<std::size_t>(n);
  }
  std::string response;
  char buf[1024];
  for (;;) {
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n <= 0) break;
    response.append(buf, static_cast<std::size_t>(n));
  }
  ::close(fd);
  return response;
}

/// A server with /ping and /echo/<rest> routes on an ephemeral port.
/// Skips the enclosing test when loopback binding is unavailable.
struct ServerFixture {
  StatusServer server;
  bool up = false;

  explicit ServerFixture(MetricsRegistry* registry = nullptr) {
    server.route("/ping", [](const std::string&) {
      StatusResponse resp;
      resp.body = "pong\n";
      return resp;
    });
    server.route_prefix("/echo/", [](const std::string& path) {
      StatusResponse resp;
      resp.body = path.substr(6);
      return resp;
    });
    if (registry != nullptr) server.bind_metrics(registry);
    std::string error;
    up = server.start(0, &error);
  }
};

TEST(StatusServerTest, EphemeralPortExactRouteAndBody) {
  ServerFixture fx;
  if (!fx.up) GTEST_SKIP() << "cannot bind loopback";
  ASSERT_GT(fx.server.port(), 0);
  EXPECT_TRUE(fx.server.running());

  const std::string resp = http_get(fx.server.port(), "/ping");
  EXPECT_NE(resp.find("HTTP/1.0 200"), std::string::npos) << resp;
  EXPECT_NE(resp.find("\r\n\r\npong\n"), std::string::npos) << resp;
}

TEST(StatusServerTest, UnknownPathIs404) {
  ServerFixture fx;
  if (!fx.up) GTEST_SKIP() << "cannot bind loopback";
  const std::string resp = http_get(fx.server.port(), "/nope");
  EXPECT_NE(resp.find("HTTP/1.0 404"), std::string::npos) << resp;
}

TEST(StatusServerTest, PrefixRouteSeesTheFullPath) {
  ServerFixture fx;
  if (!fx.up) GTEST_SKIP() << "cannot bind loopback";
  const std::string resp = http_get(fx.server.port(), "/echo/42?x=1");
  // The query string is stripped before dispatch; the prefix handler
  // receives the path and returns everything past the prefix.
  EXPECT_NE(resp.find("HTTP/1.0 200"), std::string::npos) << resp;
  EXPECT_NE(resp.find("\r\n\r\n42"), std::string::npos) << resp;
}

TEST(StatusServerTest, RequestCounterCountsEveryServedRequest) {
  MetricsRegistry registry;
  ServerFixture fx(&registry);
  if (!fx.up) GTEST_SKIP() << "cannot bind loopback";
  ASSERT_FALSE(http_get(fx.server.port(), "/ping").empty());
  ASSERT_FALSE(http_get(fx.server.port(), "/nope").empty());  // 404s count
  std::uint64_t exported = 0;
  for (const obs::MetricSample& s : registry.samples()) {
    if (s.name == "status_requests_total") exported = s.counter_value;
  }
  EXPECT_EQ(exported, 2u);
}

TEST(StatusServerTest, MetricsRouteServesThePrometheusExposition) {
  MetricsRegistry registry;
  registry.counter("frames_total")->add(3);
  obs::RunManifest manifest;
  manifest.tool = "status-server-test";
  StatusServer server;
  server.route_metrics(registry, manifest);
  std::string error;
  if (!server.start(0, &error)) GTEST_SKIP() << error;

  const std::string resp = http_get(server.port(), "/metrics");
  EXPECT_NE(resp.find("HTTP/1.0 200"), std::string::npos) << resp;
  EXPECT_NE(resp.find("Content-Type: text/plain; version=0.0.4"),
            std::string::npos)
      << resp;
  // The body is the exporter's output: the manifest comment, then series.
  const std::string head =
      "\r\n\r\n# vprofile manifest: " + manifest.to_json();
  EXPECT_NE(resp.find(head), std::string::npos) << resp;
  EXPECT_NE(resp.find("\nframes_total 3\n"), std::string::npos) << resp;
  // The route also counts requests (after serving) into the registry.
  std::uint64_t exported = 0;
  for (const obs::MetricSample& s : registry.samples()) {
    if (s.name == "status_requests_total") exported = s.counter_value;
  }
  EXPECT_EQ(exported, 1u);
}

TEST(StatusServerTest, IoTimeoutAccessorClampsToMinimum) {
  StatusServer server;
  EXPECT_EQ(server.io_timeout_ms(), 2000u);
  server.set_io_timeout_ms(150);
  EXPECT_EQ(server.io_timeout_ms(), 150u);
  server.set_io_timeout_ms(10);  // below the floor: clamped, not honored
  EXPECT_EQ(server.io_timeout_ms(), 100u);
}

// Regression: a client that requests a response bigger than the socket
// buffer and slams the connection shut mid-write used to be able to kill
// the whole process via SIGPIPE.  The hardened send path (MSG_NOSIGNAL +
// EPIPE handling) must survive it and keep serving.
TEST(StatusServerTest, EarlyCloseMidResponseDoesNotKillTheServer) {
  StatusServer server;
  server.route("/big", [](const std::string&) {
    StatusResponse resp;
    resp.body.assign(4u << 20, 'x');  // far larger than any socket buffer
    return resp;
  });
  server.route("/ping", [](const std::string&) {
    StatusResponse resp;
    resp.body = "pong\n";
    return resp;
  });
  server.set_io_timeout_ms(500);  // keep the wedged send short
  std::string error;
  if (!server.start(0, &error)) GTEST_SKIP() << error;

  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(server.port());
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  const std::string request = "GET /big HTTP/1.0\r\n\r\n";
  ASSERT_GT(::send(fd, request.data(), request.size(), 0), 0);
  // Abortive close (RST) without reading a byte of the 4 MiB body: the
  // server's in-flight send hits a dead peer.
  linger lg{};
  lg.l_onoff = 1;
  lg.l_linger = 0;
  ::setsockopt(fd, SOL_SOCKET, SO_LINGER, &lg, sizeof(lg));
  ::close(fd);

  // The server must still be alive and serving fresh connections.
  std::string resp;
  for (int attempt = 0; attempt < 5 && resp.empty(); ++attempt) {
    resp = http_get(server.port(), "/ping");
  }
  EXPECT_NE(resp.find("\r\n\r\npong\n"), std::string::npos) << resp;
}

// Regression: a client that connects and never sends a request used to
// hold the (sequential) accept loop hostage forever; the receive timeout
// bounds the damage to io_timeout_ms.
TEST(StatusServerTest, SilentClientCannotWedgeTheServerForever) {
  StatusServer server;
  server.route("/ping", [](const std::string&) {
    StatusResponse resp;
    resp.body = "pong\n";
    return resp;
  });
  server.set_io_timeout_ms(150);
  std::string error;
  if (!server.start(0, &error)) GTEST_SKIP() << error;

  const int idle = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(idle, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(server.port());
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  ASSERT_EQ(::connect(idle, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  // Send nothing.  The next real request queues behind the silent one and
  // must still be answered once the timeout evicts it.
  const std::string resp = http_get(server.port(), "/ping");
  EXPECT_NE(resp.find("HTTP/1.0 200"), std::string::npos) << resp;
  ::close(idle);
}

TEST(StatusServerTest, StopIsIdempotentAndRefusesFurtherConnections) {
  ServerFixture fx;
  if (!fx.up) GTEST_SKIP() << "cannot bind loopback";
  const std::uint16_t port = fx.server.port();
  fx.server.stop();
  fx.server.stop();
  EXPECT_FALSE(fx.server.running());
  EXPECT_TRUE(http_get(port, "/ping").empty());
}

}  // namespace
