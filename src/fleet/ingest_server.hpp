// Loopback TCP front-end for the fleet wire protocol.
//
// Reuses the obs::StatusServer idiom — one accept-loop thread on a
// loopback socket — but where the status server answers one GET per
// connection, this acceptor owns long-lived ingest streams: each
// connection gets its own handler thread and its own wire::Decoder, so a
// peer that tears frames, stalls mid-header or floods garbage is
// contained to its connection (resynchronization) and, through decode
// attribution, to the tenant it claims to carry (quarantine) — never to
// the process.  Connection count is bounded; excess peers are refused at
// accept, not queued.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace fleet {

class FleetService;

struct IngestServerConfig {
  /// 0 = ephemeral; see port().
  std::uint16_t port = 0;
};

/// Concurrent connections; further peers are refused at accept.
inline constexpr std::size_t kMaxIngestConnections = 32;

struct IngestServerStats {
  std::uint64_t connections_accepted = 0;
  std::uint64_t connections_refused = 0;
  std::uint64_t bytes_received = 0;
  std::uint64_t frames_decoded = 0;
  std::uint64_t decode_errors = 0;
  std::uint64_t resyncs = 0;
  std::uint64_t f64_frames = 0;  // frames that could not ship as u16
};

class IngestServer {
 public:
  IngestServer(FleetService* service, IngestServerConfig config);
  ~IngestServer();

  IngestServer(const IngestServer&) = delete;
  IngestServer& operator=(const IngestServer&) = delete;

  /// Binds 127.0.0.1 and starts the accept loop.  Returns false with a
  /// diagnostic on failure.
  bool start(std::string* error = nullptr);

  /// Stops accepting, closes every connection, joins all threads.
  /// Idempotent.
  void stop();

  std::uint16_t port() const { return port_; }
  bool running() const { return fd_.load(std::memory_order_relaxed) >= 0; }
  IngestServerStats stats() const;

 private:
  void accept_loop();
  void serve_connection(int client_fd);
  void reap_finished_locked();

  FleetService* service_;
  IngestServerConfig config_;
  std::atomic<int> fd_{-1};
  std::uint16_t port_ = 0;
  std::atomic<bool> stop_{false};
  std::thread accept_thread_;

  mutable std::mutex mu_;
  struct Connection {
    int fd = -1;
    std::thread worker;
    std::atomic<bool> done{false};
  };
  std::vector<std::unique_ptr<Connection>> connections_;
  IngestServerStats stats_;
};

}  // namespace fleet
