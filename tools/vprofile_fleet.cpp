// vprofile_fleet — multi-tenant fleet service over the hardened binary
// wire protocol, plus the matching ingest client.
//
// Server mode (default): trains one model per tenant, starts the sharded
// FleetService (threaded shards, per-tenant checkpoint directories under
// --checkpoint-root), the loopback wire acceptor (one thread, however
// many peers), and a status endpoint with fleet-wide /statusz plus
// per-tenant /statusz/tenant/<id>.
//
//   vprofile_fleet [--tenants N] [--tenant ID]... [--vehicle a|b]
//                  [--seed S] [--train N] [--shards K] [--ingest-port P]
//                  [--status-port P] [--checkpoint-root DIR]
//                  [--expect-drain]
//
// Tenant ids default to truck-1..truck-N.  Each tenant's model is trained
// on clean traffic from a vehicle seeded by derive_stream_seed(seed, id),
// so a client using the same --seed and --tenant produces traffic the
// tenant's own profile recognises.  --expect-drain exits once every
// tenant reaches a terminal state (drained or evicted) — the CI smoke
// uses it for a deterministic shutdown; without it the server runs until
// SIGINT/SIGTERM.
//
// Ordering: frames are ordered only within one connection.  A drain
// frame sent on a second connection (`--send --count 0`) can be read
// before the first connection's last frames, and --expect-drain then
// exits with those frames unread.  A script that drains over a new
// connection must first wait until the earlier frames are ingested, e.g.
// by polling fleet_frames_ingested_total on the status endpoint's
// /metrics.
//
// Client mode: synthesizes a labeled stream for one tenant and ships it
// over the wire, optionally torn into --chunk-byte writes to exercise
// reassembly, ending with a drain frame unless --no-drain.
//
//   vprofile_fleet --send --port P --tenant ID [--count N] [--seed S]
//                  [--vehicle a|b] [--hijack P] [--chunk BYTES]
//                  [--no-drain]
//
// Both halves print the exact "listening on" lines scripts poll for,
// mirroring vprofile_monitor.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "core/trainer.hpp"
#include "core/units.hpp"
#include "fleet/fleet_service.hpp"
#include "fleet/ingest_server.hpp"
#include "fleet/wire.hpp"
#include "obs/manifest.hpp"
#include "obs/metrics.hpp"
#include "obs/status_server.hpp"
#include "sim/attack.hpp"
#include "sim/presets.hpp"
#include "sim/scenario.hpp"
#include "sim/vehicle.hpp"

namespace {

volatile std::sig_atomic_t g_stop_requested = 0;

void handle_stop_signal(int) {
  if (g_stop_requested != 0) std::_Exit(130);
  g_stop_requested = 1;
}

void usage() {
  std::fprintf(
      stderr,
      "usage: vprofile_fleet [--tenants N] [--tenant ID]... [--vehicle a|b]\n"
      "                      [--seed S] [--train N] [--shards K]\n"
      "                      [--ingest-port P] [--status-port P]\n"
      "                      [--checkpoint-root DIR] [--expect-drain]\n"
      "       vprofile_fleet --send --port P --tenant ID [--count N]\n"
      "                      [--seed S] [--vehicle a|b] [--hijack P]\n"
      "                      [--chunk BYTES] [--no-drain]\n"
      "  server: one supervised pipeline per tenant behind the wire\n"
      "  acceptor; --expect-drain exits when every tenant is terminal\n"
      "  client: streams one tenant's synthetic traffic over the wire\n");
}

bool send_all(int fd, const char* data, std::size_t len) {
  std::size_t sent = 0;
  while (sent < len) {
    const ssize_t n = ::send(fd, data + sent, len - sent, MSG_NOSIGNAL);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    sent += static_cast<std::size_t>(n);
  }
  return true;
}

int run_client(std::uint16_t port, const std::string& tenant,
               const std::string& vehicle_name, std::uint64_t seed,
               std::size_t count, double hijack_prob,
               std::size_t chunk_bytes, bool drain) {
  const sim::VehicleConfig config =
      vehicle_name == "a" ? sim::vehicle_a() : sim::vehicle_b();
  sim::Vehicle vehicle(config,
                       sim::derive_stream_seed(units::Seed64{seed}, tenant));
  const analog::Environment env = analog::Environment::reference();
  const std::vector<sim::LabeledCapture> stream =
      sim::make_hijack_stream(vehicle, count, hijack_prob, env);

  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    std::fprintf(stderr, "socket: %s\n", std::strerror(errno));
    return 1;
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    std::fprintf(stderr, "connect 127.0.0.1:%u: %s\n",
                 static_cast<unsigned>(port), std::strerror(errno));
    ::close(fd);
    return 1;
  }

  std::string bytes;
  std::uint64_t seq = 0;
  for (const sim::LabeledCapture& lc : stream) {
    fleet::wire::Frame frame;
    frame.tenant = tenant;
    frame.seq = seq++;
    frame.samples = lc.capture.codes;
    bytes += fleet::wire::encode(frame);
  }
  if (drain) {
    fleet::wire::Frame frame;
    frame.kind = fleet::wire::FrameKind::kDrain;
    frame.tenant = tenant;
    frame.seq = seq;
    bytes += fleet::wire::encode(frame);
  }

  const std::size_t chunk = chunk_bytes == 0 ? bytes.size() : chunk_bytes;
  for (std::size_t off = 0; off < bytes.size(); off += chunk) {
    const std::size_t n =
        off + chunk > bytes.size() ? bytes.size() - off : chunk;
    if (!send_all(fd, bytes.data() + off, n)) {
      std::fprintf(stderr, "send failed: %s\n", std::strerror(errno));
      ::close(fd);
      return 1;
    }
  }
  ::shutdown(fd, SHUT_WR);
  ::close(fd);
  std::printf("sent %llu frames (%zu bytes) for tenant %s%s\n",
              static_cast<unsigned long long>(seq), bytes.size(),
              tenant.c_str(), drain ? " + drain" : "");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  bool send_mode = false;
  std::size_t tenant_count = 2;
  std::vector<std::string> tenant_ids;
  std::string vehicle_name = "a";
  std::uint64_t seed = 1;
  std::size_t train_count = 1500;
  std::size_t shards = 4;
  int ingest_port = 0;
  int status_port = -1;
  std::string checkpoint_root;
  bool expect_drain = false;
  // client
  int port = -1;
  std::size_t count = 400;
  double hijack_prob = 0.05;
  std::size_t chunk_bytes = 0;
  bool drain = true;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        usage();
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--send") {
      send_mode = true;
    } else if (arg == "--tenants") {
      tenant_count = static_cast<std::size_t>(std::strtoull(next(), nullptr, 10));
    } else if (arg == "--tenant") {
      tenant_ids.emplace_back(next());
    } else if (arg == "--vehicle") {
      vehicle_name = next();
    } else if (arg == "--seed") {
      seed = std::strtoull(next(), nullptr, 10);
    } else if (arg == "--train") {
      train_count = static_cast<std::size_t>(std::strtoull(next(), nullptr, 10));
    } else if (arg == "--shards") {
      shards = static_cast<std::size_t>(std::strtoull(next(), nullptr, 10));
    } else if (arg == "--ingest-port") {
      ingest_port = static_cast<int>(std::strtol(next(), nullptr, 10));
    } else if (arg == "--status-port") {
      status_port = static_cast<int>(std::strtol(next(), nullptr, 10));
    } else if (arg == "--checkpoint-root") {
      checkpoint_root = next();
    } else if (arg == "--expect-drain") {
      expect_drain = true;
    } else if (arg == "--port") {
      port = static_cast<int>(std::strtol(next(), nullptr, 10));
    } else if (arg == "--count") {
      count = static_cast<std::size_t>(std::strtoull(next(), nullptr, 10));
    } else if (arg == "--hijack") {
      hijack_prob = std::atof(next());
    } else if (arg == "--chunk") {
      chunk_bytes = static_cast<std::size_t>(std::strtoull(next(), nullptr, 10));
    } else if (arg == "--no-drain") {
      drain = false;
    } else {
      usage();
      return 2;
    }
  }
  if (vehicle_name != "a" && vehicle_name != "b") {
    usage();
    return 2;
  }

  if (send_mode) {
    if (port <= 0 || port > 65535 || tenant_ids.size() != 1) {
      std::fprintf(stderr, "--send requires --port and exactly one --tenant\n");
      return 2;
    }
    return run_client(static_cast<std::uint16_t>(port), tenant_ids[0],
                      vehicle_name, seed, count, hijack_prob, chunk_bytes,
                      drain);
  }

  if (tenant_ids.empty()) {
    for (std::size_t i = 1; i <= tenant_count; ++i) {
      tenant_ids.push_back("truck-" + std::to_string(i));
    }
  }
  if (tenant_ids.empty() || shards == 0 || ingest_port < 0 ||
      ingest_port > 65535 || status_port > 65535) {
    usage();
    return 2;
  }

  std::signal(SIGINT, handle_stop_signal);
  std::signal(SIGTERM, handle_stop_signal);

  obs::MetricsRegistry registry;
  obs::RunManifest manifest = obs::RunManifest::create("vprofile_fleet");
  manifest.seeds.emplace_back("seed", seed);
  manifest.config = {
      {"vehicle", vehicle_name},
      {"tenants", std::to_string(tenant_ids.size())},
      {"shards", std::to_string(shards)},
      {"train", std::to_string(train_count)},
  };

  const sim::VehicleConfig config =
      vehicle_name == "a" ? sim::vehicle_a() : sim::vehicle_b();

  fleet::FleetConfig fc;
  fc.num_shards = shards;
  fc.threaded = true;
  fc.checkpoint_root = checkpoint_root;
  fc.metrics = &registry;
  fc.tenant.supervisor.lockstep = true;
  fc.tenant.supervisor.pipeline.detection =
      sim::scenario_detection_config(config, 0.0);
  fc.tenant.supervisor.checkpoint_every = 256;
  fleet::FleetService service(fc);

  std::printf("training %zu tenant profiles (%zu clean messages each)...\n",
              tenant_ids.size(), train_count);
  for (const std::string& id : tenant_ids) {
    // Each tenant trains on clean traffic from its own vehicle.
    sim::Vehicle vehicle(config,
                         sim::derive_stream_seed(units::Seed64{seed}, id));
    vprofile::TrainOutcome trained = sim::train_on_clean_traffic(
        vehicle, train_count, analog::Environment::reference(), {});
    if (!trained.ok()) {
      std::fprintf(stderr, "tenant %s: training failed: %s\n", id.c_str(),
                   trained.error.c_str());
      return 1;
    }
    std::string err;
    if (!service.register_tenant(id, std::move(*trained.model), &err)) {
      std::fprintf(stderr, "tenant %s: %s\n", id.c_str(), err.c_str());
      return 1;
    }
    std::printf("  tenant %s -> shard %zu\n", id.c_str(),
                fleet::shard_of(id, shards));
  }

  fleet::IngestServerConfig ic;
  ic.port = static_cast<std::uint16_t>(ingest_port);
  fleet::IngestServer ingest(&service, ic);
  std::string err;
  if (!ingest.start(&err)) {
    std::fprintf(stderr, "ingest server: %s\n", err.c_str());
    return 1;
  }
  // Scripts poll stdout for this exact line to learn ephemeral ports.
  std::printf("fleet ingest listening on 127.0.0.1:%u\n",
              static_cast<unsigned>(ingest.port()));
  std::fflush(stdout);

  obs::StatusServer server;
  if (status_port >= 0) {
    server.route_metrics(registry, manifest);
    server.route("/healthz", [&](const std::string&) {
      obs::StatusResponse resp;
      resp.body = "ok\n";
      return resp;
    });
    server.route("/statusz", [&](const std::string&) {
      obs::StatusResponse resp;
      resp.content_type = "application/json";
      resp.body = service.statusz_json() + "\n";
      return resp;
    });
    server.route_prefix("/statusz/tenant/", [&](const std::string& path) {
      obs::StatusResponse resp;
      const std::string id =
          path.substr(sizeof("/statusz/tenant/") - 1);
      const auto snap = service.tenant(id);
      if (!snap) {
        resp.status = 404;
        resp.body = "unknown tenant\n";
        return resp;
      }
      resp.content_type = "application/json";
      std::string body = "{\"id\":" + obs::json_quote(snap->id);
      body += ",\"state\":" +
              obs::json_quote(fleet::to_string(snap->state));
      body += ",\"reason\":" + obs::json_quote(snap->reason);
      body += ",\"shard\":" + std::to_string(snap->shard);
      body += ",\"frames_accepted\":" +
              std::to_string(snap->frames_accepted);
      body += ",\"frames_handled\":" +
              std::to_string(snap->supervisor.frames_handled);
      body += ",\"wire_frames\":" + std::to_string(snap->transport.frames);
      body += ",\"decode_errors\":" +
              std::to_string(snap->transport.decode_errors);
      body += ",\"generations\":" + std::to_string(snap->generations) + "}\n";
      resp.body = std::move(body);
      return resp;
    });
    if (!server.start(static_cast<std::uint16_t>(status_port), &err)) {
      std::fprintf(stderr, "status server: %s\n", err.c_str());
      return 1;
    }
    std::printf("status server listening on http://127.0.0.1:%u\n",
                static_cast<unsigned>(server.port()));
    std::fflush(stdout);
  }

  // Serve until every tenant is terminal (--expect-drain) or a stop
  // signal arrives.
  for (;;) {
    if (g_stop_requested != 0) break;
    if (expect_drain) {
      bool all_terminal = true;
      for (const fleet::TenantSnapshot& snap : service.tenants()) {
        if (snap.state != fleet::TenantState::kDrained &&
            snap.state != fleet::TenantState::kEvicted) {
          all_terminal = false;
          break;
        }
      }
      if (all_terminal) break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }

  ingest.stop();
  service.finish();
  server.stop();

  const fleet::FleetStats fs = service.stats();
  const fleet::IngestServerStats is = ingest.stats();
  std::printf("\nfleet: %llu offered, %llu accepted\n",
              static_cast<unsigned long long>(fs.frames_offered),
              static_cast<unsigned long long>(fs.frames_accepted));
  std::printf("wire:  %llu frames, %llu errors (%llu unattributed), "
              "%llu dup, %llu gaps; %llu conns, %llu bytes, %llu resyncs, "
              "%llu f64 frames\n",
              static_cast<unsigned long long>(fs.wire_frames),
              static_cast<unsigned long long>(fs.wire_errors),
              static_cast<unsigned long long>(fs.wire_unattributed_errors),
              static_cast<unsigned long long>(fs.wire_duplicates),
              static_cast<unsigned long long>(fs.wire_gaps),
              static_cast<unsigned long long>(is.connections_accepted),
              static_cast<unsigned long long>(is.bytes_received),
              static_cast<unsigned long long>(is.resyncs),
              static_cast<unsigned long long>(is.f64_frames));
  std::printf("lifecycle: %llu quarantines, %llu revivals, %llu evictions\n",
              static_cast<unsigned long long>(fs.quarantines),
              static_cast<unsigned long long>(fs.revivals),
              static_cast<unsigned long long>(fs.evictions));
  for (const fleet::TenantSnapshot& snap : service.tenants()) {
    std::printf(
        "  tenant %-12s shard=%zu state=%-11s handled=%llu wire=%llu "
        "gaps=%llu fingerprint=0x%016llx\n",
        snap.id.c_str(), snap.shard, fleet::to_string(snap.state),
        static_cast<unsigned long long>(snap.supervisor.frames_handled),
        static_cast<unsigned long long>(snap.transport.frames),
        static_cast<unsigned long long>(snap.transport.gaps_detected),
        static_cast<unsigned long long>(snap.fingerprint));
  }
  std::printf("fleet fingerprint 0x%016llx\n",
              static_cast<unsigned long long>(service.fingerprint()));
  return 0;
}
