// Minimal blocking HTTP/1.0 introspection endpoint.
//
// One accept-loop thread on a loopback socket, one request per
// connection, Connection: close — the smallest server that a `curl` or a
// Prometheus scrape can talk to.  Deliberately not a web framework: no
// keep-alive, no chunking, no TLS, GET only.  Routes are plain callbacks
// registered by the embedding tool (obs/ stays below runtime/ — the
// server knows nothing about pipelines or supervisors).
//
// Threading contract: register every route before start(); handlers run
// on the server thread and must be internally thread-safe against the
// producer (the monitor's handlers read atomics, registry snapshots and
// the flight recorder's retained list, all safe by construction).
// stop() is idempotent and joins the thread.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

namespace obs {

class Counter;
class MetricsRegistry;
struct RunManifest;

/// Opens a TCP listener on 127.0.0.1:`port` (0 = ephemeral) with
/// SO_REUSEADDR and a SOMAXCONN backlog, and stores the bound port in
/// `*bound_port`.  Returns the listening fd, or -1 with a diagnostic in
/// `*error`.  StatusServer and fleet::IngestServer both listen through it.
int listen_loopback(std::uint16_t port, std::uint16_t* bound_port,
                    std::string* error);

struct StatusResponse {
  int status = 200;
  std::string content_type = "text/plain; charset=utf-8";
  std::string body;
};

class StatusServer {
 public:
  /// `path` is the request target with the query string stripped.
  using Handler = std::function<StatusResponse(const std::string& path)>;

  StatusServer() = default;
  ~StatusServer();

  StatusServer(const StatusServer&) = delete;
  StatusServer& operator=(const StatusServer&) = delete;

  /// Exact-path route.  Register before start().
  void route(std::string path, Handler handler);
  /// Longest-matching-prefix route (e.g. "/incident/").
  void route_prefix(std::string prefix, Handler handler);

  /// Counts served requests as status_requests_total.  Call before
  /// start().
  void bind_metrics(MetricsRegistry* registry);

  /// Serves `registry` on /metrics as Prometheus text stamped with
  /// `manifest`, and counts requests into it (bind_metrics).  Both must
  /// outlive the server.  Call before start().
  void route_metrics(MetricsRegistry& registry, const RunManifest& manifest);

  /// Per-connection read/write deadline (slow-client guard), applied to
  /// both SO_RCVTIMEO and SO_SNDTIMEO.  Call before start(); values
  /// below 100 ms are clamped up so a scheduling hiccup cannot starve
  /// legitimate scrapes.  Default 2000 ms.
  void set_io_timeout_ms(std::uint32_t timeout_ms) {
    io_timeout_ms_ = timeout_ms < 100 ? 100 : timeout_ms;
  }
  std::uint32_t io_timeout_ms() const { return io_timeout_ms_; }

  /// Binds 127.0.0.1:`port` (0 = ephemeral; see port()) and starts the
  /// accept loop.  Returns false with a diagnostic on failure.
  bool start(std::uint16_t port, std::string* error = nullptr);

  /// The bound port; 0 until start() succeeds.
  std::uint16_t port() const { return port_; }
  bool running() const { return fd_.load(std::memory_order_relaxed) >= 0; }

  /// Stops accepting, closes the socket, joins the thread.  Idempotent.
  void stop();

 private:
  void serve_loop();
  StatusResponse dispatch(const std::string& path) const;
  void serve_one(int client_fd);

  std::vector<std::pair<std::string, Handler>> exact_;
  std::vector<std::pair<std::string, Handler>> prefixes_;
  std::atomic<int> fd_{-1};
  std::uint16_t port_ = 0;
  std::atomic<bool> stop_{false};
  std::uint32_t io_timeout_ms_ = 2000;
  Counter* requests_counter_ = nullptr;
  std::thread thread_;
};

}  // namespace obs
