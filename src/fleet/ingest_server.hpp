// Loopback TCP front-end for the fleet wire protocol.
//
// One thread runs one poll() loop over the listening socket and every
// open peer, whatever the peer count: vProfile's per-frame work is a few
// µs against a ~500 µs frame budget on a saturated bus, so a thread per
// uplink buys nothing.  Each peer keeps its own wire::Decoder, so a peer
// that tears frames, stalls mid-header or floods garbage is contained to
// its connection (resynchronization) and, through decode attribution, to
// the tenant it claims to carry (quarantine), never to the process.
// Reads are non-blocking and one 16 KiB buffer per ready peer per pass,
// so a flooding peer cannot starve the others.  Connection count is
// bounded; excess peers are refused at accept, not queued.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <string>
#include <thread>

namespace fleet {

class FleetService;

struct IngestServerConfig {
  /// 0 = ephemeral; see port().
  std::uint16_t port = 0;
};

/// Concurrent connections; further peers are refused at accept.
inline constexpr std::size_t kMaxIngestConnections = 32;

/// Decoder counters land here when a peer closes and at stop().
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

  /// Binds 127.0.0.1 and starts the serve loop.  Returns false with a
  /// diagnostic on failure.
  bool start(std::string* error = nullptr);

  /// Stops accepting, closes every connection, joins the thread.
  /// Idempotent.
  void stop();

  std::uint16_t port() const { return port_; }
  bool running() const { return fd_.load(std::memory_order_relaxed) >= 0; }
  IngestServerStats stats() const;

 private:
  void serve_loop(int listen_fd);

  FleetService* service_;
  IngestServerConfig config_;
  std::atomic<int> fd_{-1};
  std::uint16_t port_ = 0;
  std::atomic<bool> stop_{false};

  mutable std::mutex mu_;
  IngestServerStats stats_;
  std::thread thread_;
};

}  // namespace fleet
