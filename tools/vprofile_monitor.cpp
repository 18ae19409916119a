// vprofile_monitor — online intrusion monitor: streams live traffic from a
// simulated vehicle through a lockstep runtime::Supervisor, which runs
// extract -> detect on this thread for every frame, and reports verdicts
// in capture order plus scoring telemetry.
//
// Usage:
//   vprofile_monitor --vehicle a|b [--seed S] [--train N] [--count M]
//                    [--margin M] [--hijack P] [--fault PROFILE]
//                    [--no-gate] [--verbose] [--stats-every N]
//                    [--metrics-out FILE] [--jsonl-out FILE]
//                    [--trace-out FILE]
//
// --margin defaults to 0.0, matching DetectionConfig{} (the trained
// per-cluster maximum distance alone); --fault replays the stream through
// a named analog fault profile (see faults::canned_profiles()).
// --stats-every N prints a telemetry line every N scored frames;
// --metrics-out / --jsonl-out dump the metrics registry (Prometheus
// exposition / JSONL) and --trace-out writes a Chrome trace_event JSON —
// all stamped with the RunManifest.
//
// Every frame offered is scored: one saturated bus needs about 1% of a
// core, so there is no queue to shed from, and the verdicts are a pure
// function of (vehicle, seed, options).  The supervisor adds the
// Page–Hinkley drift sentinel with guarded online retraining and
// periodic crash-safe model checkpoints (--checkpoint-dir /
// --checkpoint-every).  SIGINT/SIGTERM stop intake cleanly: the final
// checkpoint commits and the telemetry artifacts are still written.
// When --checkpoint-dir already holds a checkpoint, the monitor resumes:
// it serves the newest intact checkpoint (or last-good when the newest is
// corrupt) instead of training, and records the file in the manifest.
// Skipping training leaves the vehicle's random stream earlier, so a
// resumed run scores different traffic than a fresh run with the same
// seed, and its incident bundles do not replay from the seed.
//
// Introspection: the supervisor always carries a flight recorder
// (evidence ring + freeze-on-trigger incident bundles; bundles land in
// --incident-dir as INCIDENT_<id>.json).  --status-port N serves
// a live HTTP endpoint on 127.0.0.1 with /metrics (Prometheus), /healthz,
// /statusz (supervisor state + recent incidents) and /incident/<id>
// (bundle JSON; GET /incident/trigger arms an operator incident).  Port 0
// picks an ephemeral port; the bound port is printed on stdout.
// --pace-us sleeps between frames so a scrape can observe a live run;
// --trigger-at N arms a deterministic operator incident after the N-th
// submitted frame (soak/CI bundles without relying on attack timing).
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "core/detector.hpp"
#include "core/trainer.hpp"
#include "faults/fault.hpp"
#include "obs/export.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/manifest.hpp"
#include "obs/metrics.hpp"
#include "obs/status_server.hpp"
#include "obs/trace_span.hpp"
#include "runtime/checkpoint.hpp"
#include "runtime/supervisor.hpp"
#include "sim/attack.hpp"
#include "sim/presets.hpp"
#include "sim/scenario.hpp"
#include "sim/vehicle.hpp"
#include "stats/confusion.hpp"

namespace {

/// Set by SIGINT/SIGTERM; the submit loops poll it.  Async-signal-safe by
/// construction (a single flag write).  A second signal skips the
/// graceful drain and exits immediately — the escape hatch while a long
/// training or stream-synthesis phase is still running.
volatile std::sig_atomic_t g_stop_requested = 0;

void handle_stop_signal(int) {
  if (g_stop_requested != 0) std::_Exit(130);
  g_stop_requested = 1;
}

std::uint64_t steady_now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

void usage() {
  std::fprintf(
      stderr,
      "usage: vprofile_monitor --vehicle a|b [--seed S] [--train N]\n"
      "                        [--count M] [--margin M] [--hijack P]\n"
      "                        [--fault PROFILE] [--no-gate] [--verbose]\n"
      "                        [--stats-every N] [--metrics-out FILE]\n"
      "                        [--jsonl-out FILE] [--trace-out FILE]\n"
      "                        [--checkpoint-dir DIR]\n"
      "                        [--checkpoint-every N] [--status-port N]\n"
      "                        [--incident-dir DIR] [--pace-us N]\n"
      "                        [--trigger-at N]\n"
      "  --margin defaults to 0.0 (same as the library's DetectionConfig)\n"
      "  --fault corrupts captures with a named analog fault profile:\n");
  for (const faults::FaultProfile& p : faults::canned_profiles()) {
    std::fprintf(stderr, "      %s\n", p.name.c_str());
  }
  std::fprintf(
      stderr,
      "  --no-gate disables input-quality gating (no degraded verdicts)\n"
      "  --stats-every N prints scoring telemetry every N scored frames\n"
      "  --metrics-out writes Prometheus text exposition at exit\n"
      "  --jsonl-out writes the metrics as a JSONL event stream\n"
      "  --trace-out writes Chrome trace_event JSON (chrome://tracing)\n"
      "  --checkpoint-dir enables crash-safe model checkpoints there; when\n"
      "  it already holds one, the monitor resumes from it instead of\n"
      "  training\n"
      "  --checkpoint-every N commits a checkpoint every N scored frames\n"
      "  --status-port N serves /metrics /healthz /statusz /incident/<id>\n"
      "  on 127.0.0.1 (0 = ephemeral)\n"
      "  --incident-dir writes flight-recorder bundles there\n"
      "  --pace-us sleeps N microseconds per frame (live-scrape pacing)\n"
      "  --trigger-at N arms an operator incident after N submitted frames\n"
      "  SIGINT/SIGTERM stop intake and still write all artifacts\n");
}

}  // namespace

int main(int argc, char** argv) {
  std::string vehicle_name = "a";
  std::uint64_t seed = 1;
  std::size_t train_count = 4000;
  std::size_t stream_count = 10000;
  double margin = vprofile::DetectionConfig{}.margin;
  double hijack_prob = 0.1;
  faults::FaultProfile fault_profile = faults::clean_profile();
  bool quality_gate = true;
  bool verbose = false;
  std::size_t stats_every = 0;
  std::string metrics_out;
  std::string jsonl_out;
  std::string trace_out;
  std::string checkpoint_dir;
  std::uint64_t checkpoint_every = 0;
  int status_port = -1;  // -1 = no status server
  std::string incident_dir;
  std::uint64_t pace_us = 0;
  std::uint64_t trigger_at = 0;  // 0 = no operator trigger

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        usage();
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--vehicle") {
      vehicle_name = next();
    } else if (arg == "--seed") {
      seed = std::strtoull(next(), nullptr, 10);
    } else if (arg == "--train") {
      train_count = static_cast<std::size_t>(std::strtoull(next(), nullptr, 10));
    } else if (arg == "--count") {
      stream_count =
          static_cast<std::size_t>(std::strtoull(next(), nullptr, 10));
    } else if (arg == "--margin") {
      margin = std::atof(next());
    } else if (arg == "--hijack") {
      hijack_prob = std::atof(next());
    } else if (arg == "--fault") {
      const std::string name = next();
      const auto profile = faults::profile_by_name(name);
      if (!profile) {
        std::fprintf(stderr, "unknown fault profile '%s'\n", name.c_str());
        usage();
        return 2;
      }
      fault_profile = *profile;
    } else if (arg == "--no-gate") {
      quality_gate = false;
    } else if (arg == "--verbose") {
      verbose = true;
    } else if (arg == "--stats-every") {
      stats_every =
          static_cast<std::size_t>(std::strtoull(next(), nullptr, 10));
    } else if (arg == "--metrics-out") {
      metrics_out = next();
    } else if (arg == "--jsonl-out") {
      jsonl_out = next();
    } else if (arg == "--trace-out") {
      trace_out = next();
    } else if (arg == "--checkpoint-dir") {
      checkpoint_dir = next();
    } else if (arg == "--checkpoint-every") {
      checkpoint_every = std::strtoull(next(), nullptr, 10);
    } else if (arg == "--status-port") {
      status_port = static_cast<int>(std::strtol(next(), nullptr, 10));
    } else if (arg == "--incident-dir") {
      incident_dir = next();
    } else if (arg == "--pace-us") {
      pace_us = std::strtoull(next(), nullptr, 10);
    } else if (arg == "--trigger-at") {
      trigger_at = std::strtoull(next(), nullptr, 10);
    } else {
      usage();
      return 2;
    }
  }
  if ((vehicle_name != "a" && vehicle_name != "b") || train_count == 0 ||
      (status_port >= 0 && status_port > 65535)) {
    usage();
    return 2;
  }

  // A stop signal anywhere past this point ends intake cleanly: the
  // stream loop breaks, and the report + telemetry artifacts are written
  // as usual.
  std::signal(SIGINT, handle_stop_signal);
  std::signal(SIGTERM, handle_stop_signal);

  // One registry + tracer for the whole run; pointers stay null (and the
  // hot paths stay instrument-free) unless something will consume them —
  // a status server consumes the registry live, so it counts too.
  obs::MetricsRegistry registry;
  obs::Tracer tracer;
  const bool want_metrics =
      !metrics_out.empty() || !jsonl_out.empty() || status_port >= 0;
  obs::MetricsRegistry* metrics = want_metrics ? &registry : nullptr;
  obs::Tracer* trace = !trace_out.empty() ? &tracer : nullptr;
  if (trace != nullptr) tracer.bind_metrics(metrics);

  // Stamped into exported artifacts and every incident bundle; created
  // up-front so the status server and the flight recorder share one.
  obs::RunManifest manifest = obs::RunManifest::create("vprofile_monitor");
  manifest.seeds.emplace_back("seed", seed);
  manifest.config = {
      {"vehicle", vehicle_name},
      {"train", std::to_string(train_count)},
      {"count", std::to_string(stream_count)},
      {"fault", fault_profile.name},
      {"gate", quality_gate ? "on" : "off"},
  };

  const sim::VehicleConfig config =
      (vehicle_name == "a") ? sim::vehicle_a() : sim::vehicle_b();
  sim::Vehicle vehicle(config, seed);
  const analog::Environment env = analog::Environment::reference();

  std::optional<vprofile::Model> served;
  const runtime::CheckpointStore checkpoints(checkpoint_dir);
  if (!checkpoint_dir.empty() && checkpoints.has_checkpoint()) {
    runtime::CheckpointStore::LoadResult loaded = checkpoints.load();
    if (!loaded.model) {
      std::fprintf(stderr, "cannot resume from %s: %s\n",
                   checkpoint_dir.c_str(), loaded.error.c_str());
      return 1;
    }
    const std::string path = loaded.recovered_last_good
                                 ? checkpoints.previous_path()
                                 : checkpoints.current_path();
    std::printf("resumed from %s (%s checkpoint)\n", path.c_str(),
                loaded.recovered_last_good ? "last-good" : "current");
    manifest.config.emplace_back("resumed_from", path);
    served = std::move(loaded.model);
  } else {
    std::printf("training on %zu clean messages from %s...\n", train_count,
                config.name.c_str());
    vprofile::TrainingConfig tc;
    tc.metrics = metrics;
    tc.tracer = trace;
    vprofile::TrainOutcome trained =
        sim::train_on_clean_traffic(vehicle, train_count, env, tc);
    if (!trained.ok()) {
      std::fprintf(stderr, "training failed: %s\n", trained.error.c_str());
      return 1;
    }
    served = std::move(trained.model);
  }
  std::printf("model: %zu clusters, dim %zu\n", served->clusters().size(),
              served->dimension());

  // Live stream with hijack attacks mixed in.  Synthesis is the
  // expensive phase; skip it when a stop signal already arrived.
  const std::vector<sim::LabeledCapture> stream =
      g_stop_requested ? std::vector<sim::LabeledCapture>{}
                       : sim::make_hijack_stream(vehicle, stream_count,
                                                 hijack_prob, env);

  runtime::SupervisorConfig sc;
  sc.pipeline.metrics = metrics;
  sc.pipeline.tracer = trace;
  if (quality_gate) {
    sc.pipeline.detection = sim::scenario_detection_config(config, margin);
  } else {
    sc.pipeline.detection.margin = margin;
  }
  sc.lockstep = true;
  sc.checkpoint_dir = checkpoint_dir;
  sc.checkpoint_every = checkpoint_every;
  sc.flight_recorder = true;
  sc.recorder.bus = "vehicle_" + vehicle_name;
  sc.recorder.incident_dir = incident_dir;
  sc.recorder.manifest = manifest;
  sc.recorder.metrics = metrics;
  sc.recorder.tracer = trace;

  stats::BinaryConfusion confusion;
  std::size_t extraction_failures = 0;
  std::size_t degraded = 0;
  std::size_t sink_seen = 0;
  const vprofile::Model& model = *served;

  // Verdict accounting, in capture order; `actual` is the frame's attack
  // label.
  auto classify = [&](const pipeline::FrameResult& r, bool actual) {
    if (!r.ok()) {
      ++extraction_failures;
      return;
    }
    if (r.detection->is_degraded()) {
      // The capture was too mangled to classify; a deployed monitor
      // escalates these on a separate channel instead of guessing.
      ++degraded;
      if (verbose) {
        std::printf("msg %6llu  sa=0x%02X  %-18s confidence=%.2f%s\n",
                    static_cast<unsigned long long>(r.seq), r.sa,
                    to_string(r.detection->verdict), r.detection->confidence,
                    actual ? "  [ATTACK FRAME]" : "");
      }
      return;
    }
    const bool flagged = r.detection->is_anomaly();
    confusion.add(actual, flagged);
    if (verbose && flagged) {
      std::printf("msg %6llu  sa=0x%02X  %-18s dist=%.2f",
                  static_cast<unsigned long long>(r.seq), r.sa,
                  to_string(r.detection->verdict), r.detection->min_distance);
      if (r.detection->predicted_cluster) {
        std::printf(
            "  origin=%s",
            model.clusters()[*r.detection->predicted_cluster].name.c_str());
      }
      std::printf("%s\n", actual ? "" : "  [FALSE ALARM]");
    }
  };
  // Nothing is shed, so a result's global index is its stream position.
  runtime::Supervisor sup(model, sc, [&](const pipeline::FrameResult& r) {
    ++sink_seen;
    if (stats_every != 0 && sink_seen % stats_every == 0) {
      const pipeline::CountersSnapshot s = sup.pipeline_counters();
      std::printf(
          "[stats] frames=%llu anomalies=%llu degraded=%llu "
          "extract_fail=%llu mean_extract=%.1fus mean_detect=%.1fus\n",
          static_cast<unsigned long long>(s.completed.value()),
          static_cast<unsigned long long>(s.anomalies()),
          static_cast<unsigned long long>(s.degraded()),
          static_cast<unsigned long long>(s.extract_failures()),
          s.mean_extract_us(), s.mean_detect_us());
    }
    classify(r, stream[r.seq].is_attack);
  });

  faults::FaultInjector injector(fault_profile, config.adc.max_code(),
                                 seed ^ 0xfa0175eedull);
  injector.bind_metrics(metrics);

  obs::StatusServer server;
  if (status_port >= 0) {
    server.route_metrics(registry, manifest);
    server.route("/healthz", [&](const std::string&) {
      obs::StatusResponse resp;
      const bool down = sup.health() == runtime::HealthState::kDegraded;
      resp.status = down ? 503 : 200;
      resp.body = down ? "degraded\n" : "ok\n";
      return resp;
    });
    server.route("/statusz", [&](const std::string&) {
      const runtime::SupervisorStats ss = sup.stats();
      const pipeline::CountersSnapshot cs = sup.pipeline_counters();
      const obs::FlightRecorder* rec = sup.flight_recorder();
      auto u64 = [](std::uint64_t v) { return std::to_string(v); };
      std::string body = "{\"health\":";
      body += obs::json_quote(runtime::to_string(sup.health()));
      body += ",\"frames\":{\"submitted\":" + u64(ss.frames_submitted);
      body += ",\"handled\":" + u64(ss.frames_handled);
      body += ",\"completed\":" + u64(cs.completed.value());
      body += ",\"dropped\":" + u64(cs.dropped.value());
      body += "},\"lifecycle\":{\"drift_alarms\":" + u64(ss.drift_alarms);
      body += ",\"candidates\":" + u64(ss.candidates_started);
      body += ",\"promotions\":" + u64(ss.promotions);
      body += ",\"rollbacks\":" + u64(ss.rollbacks);
      body += ",\"checkpoints\":" + u64(ss.checkpoints_committed);
      body += "},\"recorder\":{\"records_seen\":" + u64(rec->records_seen());
      body += ",\"incidents_emitted\":" + u64(rec->incidents_emitted());
      body += ",\"triggers_coalesced\":" + u64(rec->triggers_coalesced());
      body += ",\"incidents_suppressed\":" + u64(rec->incidents_suppressed());
      body += ",\"incident_open\":";
      body += rec->incident_open() ? "true" : "false";
      body += "},\"incidents\":[";
      const std::vector<obs::IncidentSummary> incidents = rec->incidents();
      for (std::size_t i = 0; i < incidents.size(); ++i) {
        const obs::IncidentSummary& inc = incidents[i];
        if (i != 0) body += ',';
        body += "{\"id\":" + u64(inc.id);
        body += ",\"cause\":";
        body += obs::json_quote(obs::to_string(inc.cause));
        body += ",\"trigger_seq\":" + u64(inc.trigger_seq);
        body += ",\"detail\":" + obs::json_quote(inc.detail);
        body += ",\"coalesced\":" + u64(inc.coalesced);
        body += ",\"pre_records\":" + u64(inc.pre_records);
        body += ",\"post_records\":" + u64(inc.post_records);
        body += ",\"path\":" + obs::json_quote(inc.path) + "}";
      }
      body += "]}\n";
      obs::StatusResponse resp;
      resp.content_type = "application/json";
      resp.body = std::move(body);
      return resp;
    });
    server.route("/incident/trigger", [&](const std::string&) {
      sup.trigger_incident("status endpoint trigger");
      obs::StatusResponse resp;
      resp.content_type = "application/json";
      resp.body = "{\"armed\":true}\n";
      return resp;
    });
    server.route_prefix("/incident/", [&](const std::string& path) {
      obs::StatusResponse resp;
      resp.content_type = "application/json";
      const std::uint64_t id =
          std::strtoull(path.c_str() + sizeof("/incident/") - 1, nullptr, 10);
      std::string bundle = sup.flight_recorder()->bundle_json(id);
      if (id == 0 || bundle.empty()) {
        resp.status = 404;
        resp.content_type = "text/plain; charset=utf-8";
        resp.body = "unknown or evicted incident\n";
      } else {
        resp.body = std::move(bundle);
      }
      return resp;
    });
    std::string err;
    if (!server.start(static_cast<std::uint16_t>(status_port), &err)) {
      std::fprintf(stderr, "status server: %s\n", err.c_str());
      return 1;
    }
    // Scripts poll stdout for this exact line to learn ephemeral ports.
    std::printf("status server listening on http://127.0.0.1:%u\n",
                static_cast<unsigned>(server.port()));
    std::fflush(stdout);
  }

  const auto t0 = std::chrono::steady_clock::now();
  std::uint64_t submitted = 0;
  for (const sim::LabeledCapture& lc : stream) {
    if (g_stop_requested) break;
    sup.submit(fault_profile.empty() ? lc.capture.codes
                                     : injector.apply(lc.capture.codes));
    ++submitted;
    if (submitted == trigger_at) sup.trigger_incident("--trigger-at");
    if (submitted % 64 == 0) sup.poll(steady_now_ns());
    if (pace_us != 0) {
      std::this_thread::sleep_for(std::chrono::microseconds(pace_us));
    }
  }
  // Graceful shutdown: apply pending control actions, commit the final
  // checkpoint and flush the flight recorder.
  sup.finish();
  server.stop();
  const double elapsed_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  const pipeline::CountersSnapshot c = sup.pipeline_counters();
  const runtime::SupervisorStats ss = sup.stats();
  const obs::FlightRecorder* rec = sup.flight_recorder();
  std::printf(
      "\nflight recorder: %llu incidents (%llu coalesced, %llu "
      "suppressed)%s%s\n",
      static_cast<unsigned long long>(rec->incidents_emitted()),
      static_cast<unsigned long long>(rec->triggers_coalesced()),
      static_cast<unsigned long long>(rec->incidents_suppressed()),
      incident_dir.empty() ? "" : " -> ",
      incident_dir.empty() ? "" : incident_dir.c_str());

  if (g_stop_requested != 0) {
    std::printf("\nstop signal received: stopped after %llu frames\n",
                static_cast<unsigned long long>(c.submitted.value()));
  }
  std::printf("\n%s\n", confusion.to_table("monitor verdicts").c_str());
  std::printf("precision %.4f  recall %.4f  f-score %.4f  accuracy %.4f\n",
              confusion.precision(), confusion.recall(), confusion.f_score(),
              confusion.accuracy());
  std::printf("\nscoring: inline on the intake thread\n");
  std::printf("  frames      %llu submitted, %llu scored, "
              "%zu extraction failures, %zu degraded\n",
              static_cast<unsigned long long>(c.submitted.value()),
              static_cast<unsigned long long>(c.completed.value()),
              extraction_failures, degraded);
  std::printf("  verdicts   ");
  for (std::size_t v = 0; v < vprofile::kNumVerdicts; ++v) {
    std::printf(" %s=%llu",
                vprofile::to_string(static_cast<vprofile::Verdict>(v)),
                static_cast<unsigned long long>(c.verdicts[v]));
  }
  std::printf("\n");
  if (c.extract_failures() > 0) {
    std::printf("  extract err");
    for (std::size_t e = 0; e < pipeline::kNumExtractErrors; ++e) {
      if (c.extract_errors[e] == 0) continue;
      std::printf(" %s=%llu",
                  vprofile::to_string(static_cast<vprofile::ExtractError>(e)),
                  static_cast<unsigned long long>(c.extract_errors[e]));
    }
    std::printf("\n");
  }
  if (!fault_profile.empty()) {
    const faults::FaultStats& fs = injector.stats();
    std::printf("  faults      profile '%s': %llu/%llu traces hit;",
                fault_profile.name.c_str(),
                static_cast<unsigned long long>(fs.faulted_traces),
                static_cast<unsigned long long>(fs.total_traces));
    for (std::size_t k = 0; k < faults::kNumFaultKinds; ++k) {
      std::printf(" %s=%llu",
                  faults::to_string(static_cast<faults::FaultKind>(k)),
                  static_cast<unsigned long long>(fs.applied[k]));
    }
    std::printf("\n");
  }
  std::printf("  throughput  %.0f frames/s (%.2f s wall)\n",
              c.frames_per_second(elapsed_s), elapsed_s);
  std::printf("  latency     extract %.1f us/frame, detect %.1f us/frame\n",
              c.mean_extract_us(), c.mean_detect_us());
  std::printf("\nsupervisor: health=%s\n", runtime::to_string(sup.health()));
  std::printf(
      "  lifecycle   drift_alarms=%llu candidates=%llu promotions=%llu "
      "rollbacks=%llu checkpoints=%llu\n",
      static_cast<unsigned long long>(ss.drift_alarms),
      static_cast<unsigned long long>(ss.candidates_started),
      static_cast<unsigned long long>(ss.promotions),
      static_cast<unsigned long long>(ss.rollbacks),
      static_cast<unsigned long long>(ss.checkpoints_committed));
  std::printf(
      "  intake      submitted=%llu worker_errors=%llu\n",
      static_cast<unsigned long long>(ss.frames_submitted),
      static_cast<unsigned long long>(ss.worker_errors));
  std::printf(
      "  update gate accepted=%llu rejected_verdict=%llu "
      "rejected_margin=%llu refused=%llu\n",
      static_cast<unsigned long long>(ss.gate.accepted),
      static_cast<unsigned long long>(ss.gate.rejected_verdict),
      static_cast<unsigned long long>(ss.gate.rejected_margin),
      static_cast<unsigned long long>(ss.gate.refused_by_updater));
  if (!checkpoint_dir.empty()) {
    std::printf("  checkpoints -> %s\n", checkpoint_dir.c_str());
  }

  if (want_metrics || trace != nullptr) {
    const std::vector<obs::MetricSample> samples = registry.samples();
    std::string err;
    if (!metrics_out.empty()) {
      if (!obs::write_text_file(metrics_out,
                                obs::to_prometheus(samples, &manifest),
                                &err)) {
        std::fprintf(stderr, "error: %s\n", err.c_str());
        return 1;
      }
      std::printf("  metrics     -> %s\n", metrics_out.c_str());
    }
    if (!jsonl_out.empty()) {
      if (!obs::write_text_file(jsonl_out, obs::to_jsonl(samples, &manifest),
                                &err)) {
        std::fprintf(stderr, "error: %s\n", err.c_str());
        return 1;
      }
      std::printf("  jsonl       -> %s\n", jsonl_out.c_str());
    }
    if (trace != nullptr) {
      if (!obs::write_text_file(trace_out, trace->chrome_trace_json(&manifest),
                                &err)) {
        std::fprintf(stderr, "error: %s\n", err.c_str());
        return 1;
      }
      std::printf("  trace       -> %s (%llu spans recorded)\n",
                  trace_out.c_str(),
                  static_cast<unsigned long long>(trace->total_recorded()));
    }
  }

  return (confusion.false_positives() + confusion.false_negatives()) > 0 ? 3
                                                                         : 0;
}
