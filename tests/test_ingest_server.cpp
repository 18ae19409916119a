// Tests for the loopback wire acceptor (fleet::IngestServer): frames sent
// over real sockets must reach the FleetService exactly as the same bytes
// fed through wire::Decoder + handle_wire_event in process, a garbage run
// resynchronizes without touching later frames, a burst of peers up to
// the connection cap connects without a SYN retransmit, peers past the
// cap are refused at accept, and stop() returns while peers are still
// connected.  Clients are raw loopback sockets, as a truck's
// uplink would look on the wire.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "core/extractor.hpp"
#include "core/trainer.hpp"
#include "fleet/fleet_service.hpp"
#include "fleet/ingest_server.hpp"
#include "fleet/wire.hpp"
#include "sim/attack.hpp"
#include "sim/presets.hpp"
#include "sim/vehicle.hpp"

namespace {

constexpr std::uint64_t kSeed = 11;
constexpr std::size_t kTrainCount = 900;
constexpr std::size_t kFramesPerTenant = 24;

struct World {
  std::optional<vprofile::Model> model;
  std::vector<dsp::Trace> traces;  // benign stream, 2 * kFramesPerTenant
};

const World& world() {
  static const World w = [] {
    World out;
    sim::Vehicle vehicle(sim::vehicle_a(), kSeed);
    const analog::Environment env = analog::Environment::reference();
    const auto extraction = sim::default_extraction(vehicle.config());
    std::vector<vprofile::EdgeSet> training;
    for (const sim::Capture& cap : vehicle.capture(kTrainCount, env)) {
      if (auto es = vprofile::extract_edge_set(cap.codes, extraction)) {
        training.push_back(std::move(*es));
      }
    }
    vprofile::TrainingConfig tc;
    tc.extraction = extraction;
    auto trained =
        vprofile::train_with_database(training, vehicle.database(), tc);
    EXPECT_TRUE(trained.ok()) << trained.error;
    if (!trained.ok()) return out;
    out.model = std::move(*trained.model);
    for (sim::LabeledCapture& lc :
         sim::make_normal_stream(vehicle, 2 * kFramesPerTenant, env)) {
      out.traces.push_back(std::move(lc.capture.codes));
    }
    return out;
  }();
  return w;
}

fleet::FleetConfig fleet_config() {
  fleet::FleetConfig cfg;
  cfg.num_shards = 2;
  cfg.tenant.supervisor.lockstep = true;
  cfg.tenant.supervisor.pipeline.num_workers = 1;
  cfg.tenant.supervisor.online_update = false;
  return cfg;
}

/// One tenant's uplink: `kFramesPerTenant` frames from `first_trace` on.
std::string uplink_bytes(const std::string& tenant, std::size_t first_trace) {
  std::string bytes;
  for (std::size_t i = 0; i < kFramesPerTenant; ++i) {
    fleet::wire::Frame f;
    f.tenant = tenant;
    f.seq = i;
    f.samples = world().traces[first_trace + i];
    bytes += fleet::wire::encode(f);
  }
  return bytes;
}

/// Loopback client connected to `port`, with a receive deadline so a
/// broken server fails the test instead of hanging it.  -1 on failure.
int connect_loopback(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  timeval tv{};
  tv.tv_sec = 10;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

bool send_all(int fd, const std::string& bytes) {
  std::size_t sent = 0;
  while (sent < bytes.size()) {
    const ssize_t n =
        ::send(fd, bytes.data() + sent, bytes.size() - sent, MSG_NOSIGNAL);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    sent += static_cast<std::size_t>(n);
  }
  return true;
}

/// True once the server closed its side: recv reports end of stream.
bool sees_eof(int fd) {
  char byte = 0;
  for (;;) {
    const ssize_t n = ::recv(fd, &byte, 1, 0);
    if (n < 0 && errno == EINTR) continue;
    return n == 0;
  }
}

/// Polls `done` until it holds or 30 s pass (sanitizer builds are slow).
bool wait_for(const std::function<bool()>& done) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (!done()) {
    if (std::chrono::steady_clock::now() > deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  return true;
}

TEST(IngestServer, SocketDeliveryMatchesInProcessDecode) {
  const World& w = world();
  ASSERT_TRUE(w.model.has_value());
  // Connection A opens with a garbage run (no magic inside), then carries
  // truck-1; connection B carries truck-2.  The garbage goes first so it
  // sits at the front of the decoder buffer however recv() splits the
  // stream, which keeps the resync count exact.
  const std::string garbage(64, static_cast<char>(0xAA));
  const std::string stream_a = uplink_bytes("truck-1", 0);
  const std::string stream_b = uplink_bytes("truck-2", kFramesPerTenant);

  fleet::FleetService service(fleet_config());
  ASSERT_TRUE(service.register_tenant("truck-1", *w.model));
  ASSERT_TRUE(service.register_tenant("truck-2", *w.model));
  fleet::IngestServer server(&service, fleet::IngestServerConfig{});
  std::string error;
  ASSERT_TRUE(server.start(&error)) << error;
  ASSERT_NE(server.port(), 0u);

  const int a = connect_loopback(server.port());
  const int b = connect_loopback(server.port());
  ASSERT_GE(a, 0);
  ASSERT_GE(b, 0);
  ASSERT_TRUE(send_all(a, garbage));
  ASSERT_TRUE(send_all(b, stream_b));
  ASSERT_TRUE(send_all(a, stream_a));
  ::close(a);
  ::close(b);
  // A connection's decoder stats land when its handler sees the close.
  ASSERT_TRUE(wait_for([&] {
    return server.stats().frames_decoded == 2 * kFramesPerTenant;
  })) << "frames_decoded=" << server.stats().frames_decoded;
  const fleet::IngestServerStats st = server.stats();
  server.stop();
  service.finish();

  EXPECT_EQ(st.connections_accepted, 2u);
  EXPECT_EQ(st.connections_refused, 0u);
  EXPECT_EQ(st.bytes_received,
            garbage.size() + stream_a.size() + stream_b.size());
  EXPECT_EQ(st.resyncs, 1u);
  EXPECT_EQ(st.decode_errors, 1u);  // the garbage run, as one kBadMagic
  EXPECT_EQ(st.f64_frames, 0u);     // ADC codes ship as u16

  // Reference: the same bytes, decoded and handled on this thread.
  fleet::FleetService reference(fleet_config());
  ASSERT_TRUE(reference.register_tenant("truck-1", *w.model));
  ASSERT_TRUE(reference.register_tenant("truck-2", *w.model));
  for (const std::string& bytes : {garbage + stream_a, stream_b}) {
    fleet::wire::Decoder decoder;
    decoder.feed(bytes.data(), bytes.size());
    while (auto event = decoder.next()) {
      reference.handle_wire_event(std::move(*event));
    }
  }
  reference.finish();

  for (const char* id : {"truck-1", "truck-2"}) {
    SCOPED_TRACE(id);
    const auto got = service.tenant(id);
    const auto want = reference.tenant(id);
    ASSERT_TRUE(got.has_value());
    ASSERT_TRUE(want.has_value());
    EXPECT_EQ(got->supervisor.frames_handled, kFramesPerTenant);
    EXPECT_EQ(got->transport.frames, kFramesPerTenant);
    EXPECT_EQ(got->fingerprint, want->fingerprint);
  }
  EXPECT_EQ(service.fingerprint(), reference.fingerprint());
}

TEST(IngestServer, RefusesPeersPastTheCapAndStopsWithPeersOpen) {
  fleet::FleetService service(fleet_config());
  fleet::IngestServer server(&service, fleet::IngestServerConfig{});
  std::string error;
  ASSERT_TRUE(server.start(&error)) << error;

  // Each connect() of the burst completes in the kernel's handshake; one
  // that waits on a SYN retransmit (a backlog below the cap) takes ~1 s.
  const auto timed_connect = [&server] {
    const auto t0 = std::chrono::steady_clock::now();
    const int fd = connect_loopback(server.port());
    EXPECT_LT(std::chrono::steady_clock::now() - t0,
              std::chrono::milliseconds(500));
    return fd;
  };
  std::vector<int> peers;
  for (std::size_t i = 0; i < fleet::kMaxIngestConnections; ++i) {
    const int fd = timed_connect();
    ASSERT_GE(fd, 0);
    peers.push_back(fd);
  }
  ASSERT_TRUE(wait_for([&] {
    return server.stats().connections_accepted ==
           fleet::kMaxIngestConnections;
  }));

  // One peer too many: accepted by the kernel, then closed and counted.
  const int extra = timed_connect();
  ASSERT_GE(extra, 0);
  ASSERT_TRUE(wait_for([&] { return server.stats().connections_refused == 1; }));
  EXPECT_TRUE(sees_eof(extra));
  ::close(extra);
  EXPECT_EQ(server.stats().connections_accepted,
            fleet::kMaxIngestConnections);

  // Every capped peer is still connected and idle; stop() must release
  // their handlers at once, not wait for the peers to hang up or for the
  // 2 s per-connection read deadline to lapse.
  const auto t0 = std::chrono::steady_clock::now();
  server.stop();
  EXPECT_LT(std::chrono::steady_clock::now() - t0, std::chrono::seconds(1));
  EXPECT_FALSE(server.running());
  for (const int fd : peers) {
    EXPECT_TRUE(sees_eof(fd));
    ::close(fd);
  }
  service.finish();
}

}  // namespace
