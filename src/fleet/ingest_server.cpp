#include "fleet/ingest_server.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/types.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <utility>

#include "fleet/fleet_service.hpp"
#include "fleet/wire.hpp"

namespace fleet {

IngestServer::IngestServer(FleetService* service, IngestServerConfig config)
    : service_(service), config_(config) {
  if (config_.max_connections == 0) config_.max_connections = 1;
  if (config_.read_timeout_ms < 100) config_.read_timeout_ms = 100;
}

IngestServer::~IngestServer() { stop(); }

bool IngestServer::start(std::string* error) {
  if (running()) {
    if (error != nullptr) *error = "ingest server already running";
    return false;
  }
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    if (error != nullptr) {
      *error = std::string("socket: ") + std::strerror(errno);
    }
    return false;
  }
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(config_.port);
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    if (error != nullptr) {
      *error = std::string("bind 127.0.0.1:") + std::to_string(config_.port) +
               ": " + std::strerror(errno);
    }
    ::close(fd);
    return false;
  }
  if (::listen(fd, 16) != 0) {
    if (error != nullptr) {
      *error = std::string("listen: ") + std::strerror(errno);
    }
    ::close(fd);
    return false;
  }
  sockaddr_in bound{};
  socklen_t bound_len = sizeof(bound);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &bound_len) ==
      0) {
    port_ = ntohs(bound.sin_port);
  } else {
    port_ = config_.port;
  }
  stop_.store(false, std::memory_order_relaxed);
  fd_.store(fd, std::memory_order_release);
  accept_thread_ = std::thread([this] { accept_loop(); });
  return true;
}

void IngestServer::stop() {
  stop_.store(true, std::memory_order_relaxed);
  const int fd = fd_.exchange(-1, std::memory_order_acq_rel);
  if (fd >= 0) {
    ::shutdown(fd, SHUT_RDWR);
    ::close(fd);
  }
  if (accept_thread_.joinable()) accept_thread_.join();
  std::vector<std::unique_ptr<Connection>> connections;
  {
    std::lock_guard<std::mutex> lock(mu_);
    connections.swap(connections_);
  }
  for (auto& conn : connections) {
    // Shutting the socket unblocks a handler parked in recv().
    if (conn->fd >= 0) ::shutdown(conn->fd, SHUT_RDWR);
  }
  for (auto& conn : connections) {
    if (conn->worker.joinable()) conn->worker.join();
    if (conn->fd >= 0) ::close(conn->fd);
  }
  port_ = 0;
}

IngestServerStats IngestServer::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

void IngestServer::reap_finished_locked() {
  for (auto it = connections_.begin(); it != connections_.end();) {
    Connection& conn = **it;
    if (conn.done.load(std::memory_order_acquire)) {
      if (conn.worker.joinable()) conn.worker.join();
      if (conn.fd >= 0) ::close(conn.fd);
      it = connections_.erase(it);
    } else {
      ++it;
    }
  }
}

void IngestServer::accept_loop() {
  while (!stop_.load(std::memory_order_relaxed)) {
    const int fd = fd_.load(std::memory_order_acquire);
    if (fd < 0) break;
    pollfd pfd{};
    pfd.fd = fd;
    pfd.events = POLLIN;
    const int ready = ::poll(&pfd, 1, 200);
    if (ready <= 0) continue;
    if ((pfd.revents & (POLLERR | POLLHUP | POLLNVAL)) != 0) break;
    const int client = ::accept(fd, nullptr, nullptr);
    if (client < 0) continue;

    std::lock_guard<std::mutex> lock(mu_);
    reap_finished_locked();
    if (connections_.size() >= config_.max_connections) {
      ++stats_.connections_refused;
      ::close(client);
      continue;
    }
    ++stats_.connections_accepted;
    auto conn = std::make_unique<Connection>();
    conn->fd = client;
    Connection* raw = conn.get();
    conn->worker = std::thread([this, raw] {
      serve_connection(raw->fd);
      raw->done.store(true, std::memory_order_release);
    });
    connections_.push_back(std::move(conn));
  }
}

void IngestServer::serve_connection(int client_fd) {
  timeval tv{};
  tv.tv_sec = static_cast<time_t>(config_.read_timeout_ms / 1000);
  tv.tv_usec = static_cast<suseconds_t>((config_.read_timeout_ms % 1000) * 1000);
  ::setsockopt(client_fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));

  wire::Decoder decoder;
  char buf[16384];
  std::uint64_t bytes = 0;
  while (!stop_.load(std::memory_order_relaxed)) {
    const ssize_t n = ::recv(client_fd, buf, sizeof(buf), 0);
    if (n == 0) break;  // peer closed
    if (n < 0) {
      if (errno == EINTR) continue;
      // Read deadline: keep waiting unless we are shutting down — an
      // idle uplink is not an error, it is a truck parked overnight.
      if (errno == EAGAIN || errno == EWOULDBLOCK) continue;
      break;
    }
    bytes += static_cast<std::uint64_t>(n);
    decoder.feed(buf, static_cast<std::size_t>(n));
    while (auto event = decoder.next()) {
      service_->handle_wire_event(std::move(*event));
    }
  }
  // Whatever is still buffered is a torn tail; the decoder already
  // counted everything decodable.
  const wire::Decoder::Stats& ds = decoder.stats();
  std::lock_guard<std::mutex> lock(mu_);
  stats_.bytes_received += bytes;
  stats_.frames_decoded += ds.frames_decoded;
  stats_.decode_errors += ds.errors;
  stats_.resyncs += ds.resyncs;
  stats_.f64_frames += ds.f64_frames;
}

}  // namespace fleet
