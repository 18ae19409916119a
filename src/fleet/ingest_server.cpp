#include "fleet/ingest_server.hpp"

#include <poll.h>
#include <sys/socket.h>
#include <sys/types.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <utility>
#include <vector>

#include "fleet/fleet_service.hpp"
#include "fleet/wire.hpp"
#include "obs/status_server.hpp"

namespace fleet {

namespace {

/// Bytes read from one ready peer per pass of the serve loop.
constexpr std::size_t kReadBytes = 16384;

struct Peer {
  int fd = -1;
  wire::Decoder decoder;
  std::uint64_t bytes = 0;
};

}  // namespace

IngestServer::IngestServer(FleetService* service, IngestServerConfig config)
    : service_(service), config_(config) {}

IngestServer::~IngestServer() { stop(); }

bool IngestServer::start(std::string* error) {
  if (running()) {
    if (error != nullptr) *error = "ingest server already running";
    return false;
  }
  const int fd = obs::listen_loopback(config_.port, &port_, error);
  if (fd < 0) return false;
  stop_.store(false, std::memory_order_relaxed);
  fd_.store(fd, std::memory_order_release);
  thread_ = std::thread([this, fd] { serve_loop(fd); });
  return true;
}

void IngestServer::stop() {
  stop_.store(true, std::memory_order_relaxed);
  const int fd = fd_.exchange(-1, std::memory_order_acq_rel);
  // Shutting the listener wakes a poll() parked on it; the loop then
  // closes every peer.  The fd is closed only after the join, so the
  // loop never polls a descriptor number that was reused meanwhile.
  if (fd >= 0) ::shutdown(fd, SHUT_RDWR);
  if (thread_.joinable()) thread_.join();
  if (fd >= 0) ::close(fd);
  port_ = 0;
}

IngestServerStats IngestServer::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

void IngestServer::serve_loop(int listen_fd) {
  std::vector<Peer> peers;
  std::vector<pollfd> fds;
  char buf[kReadBytes];
  // Whatever a closing peer still buffers is a torn tail; its decoder
  // already counted everything decodable.
  const auto close_peer = [this](Peer& peer) {
    ::close(peer.fd);
    peer.fd = -1;
    const wire::Decoder::Stats& ds = peer.decoder.stats();
    std::lock_guard<std::mutex> lock(mu_);
    stats_.bytes_received += peer.bytes;
    stats_.frames_decoded += ds.frames_decoded;
    stats_.decode_errors += ds.errors;
    stats_.resyncs += ds.resyncs;
    stats_.f64_frames += ds.f64_frames;
  };

  while (!stop_.load(std::memory_order_relaxed)) {
    fds.assign(1, pollfd{listen_fd, POLLIN, 0});
    for (const Peer& peer : peers) fds.push_back(pollfd{peer.fd, POLLIN, 0});
    if (::poll(fds.data(), fds.size(), 200) <= 0) continue;

    for (std::size_t i = 0; i < peers.size(); ++i) {
      if (fds[i + 1].revents == 0) continue;
      Peer& peer = peers[i];
      const ssize_t n = ::recv(peer.fd, buf, sizeof(buf), MSG_DONTWAIT);
      if (n < 0 &&
          (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK)) {
        continue;
      }
      if (n <= 0) {  // peer closed, or the connection failed
        close_peer(peer);
        continue;
      }
      peer.bytes += static_cast<std::uint64_t>(n);
      peer.decoder.feed(buf, static_cast<std::size_t>(n));
      while (auto event = peer.decoder.next()) {
        service_->handle_wire_event(std::move(*event));
      }
    }
    peers.erase(std::remove_if(peers.begin(), peers.end(),
                               [](const Peer& peer) { return peer.fd < 0; }),
                peers.end());

    if ((fds[0].revents & (POLLERR | POLLHUP | POLLNVAL)) != 0) break;
    if ((fds[0].revents & POLLIN) == 0) continue;
    const int client = ::accept(listen_fd, nullptr, nullptr);
    if (client < 0) continue;
    const bool refuse = peers.size() >= kMaxIngestConnections;
    {
      std::lock_guard<std::mutex> lock(mu_);
      ++(refuse ? stats_.connections_refused : stats_.connections_accepted);
    }
    if (refuse) {
      ::close(client);
    } else {
      peers.push_back(Peer{client, {}, 0});
    }
  }
  for (Peer& peer : peers) close_peer(peer);
}

}  // namespace fleet
