#include "obs/status_server.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/types.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "obs/export.hpp"
#include "obs/manifest.hpp"
#include "obs/metrics.hpp"

namespace obs {

namespace {

const char* reason_phrase(int status) {
  switch (status) {
    case 200:
      return "OK";
    case 400:
      return "Bad Request";
    case 404:
      return "Not Found";
    case 405:
      return "Method Not Allowed";
    case 503:
      return "Service Unavailable";
    default:
      return "Status";
  }
}

/// Largest request head we accept; a GET line plus a few headers is
/// hundreds of bytes, so 8 KiB is generous and bounds a hostile peer.
constexpr std::size_t kMaxRequestBytes = 8192;

bool send_all(int fd, const char* data, std::size_t len) {
  std::size_t sent = 0;
  while (sent < len) {
    // MSG_NOSIGNAL: a client that disconnects mid-write must surface as
    // EPIPE from send(), not as a process-wide SIGPIPE that kills the
    // server thread (and the embedding monitor with it).
    const ssize_t n = ::send(fd, data + sent, len - sent, MSG_NOSIGNAL);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    sent += static_cast<std::size_t>(n);
  }
  return true;
}

}  // namespace

int listen_loopback(std::uint16_t port, std::uint16_t* bound_port,
                    std::string* error) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    if (error != nullptr) {
      *error = std::string("socket: ") + std::strerror(errno);
    }
    return -1;
  }
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    if (error != nullptr) {
      *error = std::string("bind 127.0.0.1:") + std::to_string(port) + ": " +
               std::strerror(errno);
    }
    ::close(fd);
    return -1;
  }
  // A burst of clients (ingest peers up to the connection cap, or
  // scrapers) must not have SYNs dropped, and wait out the kernel's 1 s
  // retransmit, while the serve loop catches up.
  if (::listen(fd, SOMAXCONN) != 0) {
    if (error != nullptr) {
      *error = std::string("listen: ") + std::strerror(errno);
    }
    ::close(fd);
    return -1;
  }
  sockaddr_in bound{};
  socklen_t bound_len = sizeof(bound);
  *bound_port =
      ::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &bound_len) == 0
          ? ntohs(bound.sin_port)
          : port;
  return fd;
}

StatusServer::~StatusServer() { stop(); }

void StatusServer::route(std::string path, Handler handler) {
  exact_.emplace_back(std::move(path), std::move(handler));
}

void StatusServer::route_prefix(std::string prefix, Handler handler) {
  prefixes_.emplace_back(std::move(prefix), std::move(handler));
}

void StatusServer::bind_metrics(MetricsRegistry* registry) {
  if (registry != nullptr) {
    requests_counter_ = registry->counter("status_requests_total");
  }
}

void StatusServer::route_metrics(MetricsRegistry& registry,
                                 const RunManifest& manifest) {
  bind_metrics(&registry);
  route("/metrics", [&registry, &manifest](const std::string&) {
    StatusResponse resp;
    resp.content_type = "text/plain; version=0.0.4; charset=utf-8";
    resp.body = to_prometheus(registry.samples(), &manifest);
    return resp;
  });
}

bool StatusServer::start(std::uint16_t port, std::string* error) {
  if (running()) {
    if (error != nullptr) *error = "status server already running";
    return false;
  }
  const int fd = listen_loopback(port, &port_, error);
  if (fd < 0) return false;
  stop_.store(false, std::memory_order_relaxed);
  fd_.store(fd, std::memory_order_release);
  thread_ = std::thread([this] { serve_loop(); });
  return true;
}

void StatusServer::stop() {
  stop_.store(true, std::memory_order_relaxed);
  const int fd = fd_.exchange(-1, std::memory_order_acq_rel);
  if (fd >= 0) {
    // Unblocks a poll()/accept() parked on the listening socket.
    ::shutdown(fd, SHUT_RDWR);
    ::close(fd);
  }
  if (thread_.joinable()) thread_.join();
  port_ = 0;
}

void StatusServer::serve_loop() {
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
    serve_one(client);
    ::close(client);
  }
}

void StatusServer::serve_one(int client_fd) {
  // A peer that trickles, stalls, or stops reading must not wedge the
  // serve loop — both directions get the same deadline.
  const std::uint32_t timeout_ms = io_timeout_ms_;
  timeval tv{};
  tv.tv_sec = static_cast<time_t>(timeout_ms / 1000);
  tv.tv_usec = static_cast<suseconds_t>((timeout_ms % 1000) * 1000);
  ::setsockopt(client_fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  ::setsockopt(client_fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
  std::string request;
  char buf[1024];
  while (request.size() < kMaxRequestBytes &&
         request.find("\r\n\r\n") == std::string::npos &&
         request.find("\n\n") == std::string::npos) {
    const ssize_t n = ::recv(client_fd, buf, sizeof(buf), 0);
    if (n <= 0) break;
    request.append(buf, static_cast<std::size_t>(n));
  }

  StatusResponse resp;
  const std::size_t line_end = request.find('\n');
  const std::string line =
      line_end == std::string::npos ? request : request.substr(0, line_end);
  const std::size_t sp1 = line.find(' ');
  const std::size_t sp2 =
      sp1 == std::string::npos ? std::string::npos : line.find(' ', sp1 + 1);
  if (sp1 == std::string::npos || sp2 == std::string::npos) {
    resp.status = 400;
    resp.body = "bad request\n";
  } else if (line.substr(0, sp1) != "GET") {
    resp.status = 405;
    resp.body = "method not allowed\n";
  } else {
    std::string path = line.substr(sp1 + 1, sp2 - sp1 - 1);
    const std::size_t query = path.find('?');
    if (query != std::string::npos) path.resize(query);
    resp = dispatch(path);
  }

  if (requests_counter_ != nullptr) requests_counter_->add();

  std::string head = "HTTP/1.0 " + std::to_string(resp.status) + " " +
                     reason_phrase(resp.status) + "\r\n";
  head += "Content-Type: " + resp.content_type + "\r\n";
  head += "Content-Length: " + std::to_string(resp.body.size()) + "\r\n";
  head += "Connection: close\r\n\r\n";
  if (send_all(client_fd, head.data(), head.size())) {
    send_all(client_fd, resp.body.data(), resp.body.size());
  }
}

StatusResponse StatusServer::dispatch(const std::string& path) const {
  for (const auto& [route_path, handler] : exact_) {
    if (path == route_path) return handler(path);
  }
  const Handler* best = nullptr;
  std::size_t best_len = 0;
  for (const auto& [prefix, handler] : prefixes_) {
    if (path.size() >= prefix.size() &&
        path.compare(0, prefix.size(), prefix) == 0 &&
        prefix.size() >= best_len) {
      best = &handler;
      best_len = prefix.size();
    }
  }
  if (best != nullptr) return (*best)(path);
  StatusResponse resp;
  resp.status = 404;
  resp.body = "not found\n";
  return resp;
}

}  // namespace obs
