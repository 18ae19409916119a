// Unit tests for the obs flight recorder: ring wrap-around, freeze-on-
// trigger with disjoint pre/post windows, trigger coalescing and the
// max_incidents cap, partial flush, bundle JSON shape and on-disk
// emission, plus the supervisor integration — same-seed bundles must be
// byte-identical across worker counts, and every recorded verdict must
// match the ordered sink bit-for-bit (the in-process half of what
// tools/vprofile_replay.cpp checks offline).
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <fstream>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "core/extractor.hpp"
#include "core/trainer.hpp"
#include "dsp/trace.hpp"
#include "io/json.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/manifest.hpp"
#include "obs/metrics.hpp"
#include "pipeline/pipeline.hpp"
#include "runtime/supervisor.hpp"
#include "sim/attack.hpp"
#include "sim/presets.hpp"
#include "sim/vehicle.hpp"

namespace {

using obs::EvidenceRecord;
using obs::FlightRecorder;
using obs::FlightRecorderConfig;
using obs::IncidentCause;

// ------------------------------------------------------------- helpers

/// A distinguishable record: seq drives every field so window contents
/// can be asserted from the parsed bundle alone.
EvidenceRecord make_record(std::uint64_t seq) {
  EvidenceRecord r;
  r.seq = seq;
  r.tick_ns = seq * 10;
  r.sa = static_cast<std::uint8_t>(seq & 0x7F);
  r.verdict = 0;
  r.min_distance = 0.5 * static_cast<double>(seq);
  r.confidence = 1.0;
  r.dim = 2;
  r.features[0] = static_cast<double>(seq);
  r.features[1] = 0.25;
  return r;
}

/// Fixed-provenance config: byte-stable bundles need a manifest that
/// does not read the wall clock (RunManifest::create() does).
FlightRecorderConfig small_config() {
  FlightRecorderConfig fc;
  fc.ring_capacity = 8;
  fc.pre_trigger = 8;
  fc.post_trigger = 2;
  fc.manifest.tool = "test_flight_recorder";
  fc.manifest.git_describe = "test";
  fc.manifest.iso8601 = "1970-01-01T00:00:00Z";
  return fc;
}

/// Sequence numbers of one evidence window ("pre" / "post") in a parsed
/// bundle.
std::vector<std::uint64_t> window_seqs(const io::json::Value& root,
                                       const char* part) {
  std::vector<std::uint64_t> seqs;
  const io::json::Value* evidence = io::json::get(&root, "evidence");
  const io::json::Value* window = io::json::get(evidence, part);
  if (window == nullptr || !window->is_array()) return seqs;
  for (const io::json::Value& rec : window->array) {
    const io::json::Value* seq = io::json::get(&rec, "seq");
    if (seq != nullptr && seq->is_number()) {
      seqs.push_back(static_cast<std::uint64_t>(seq->number));
    }
  }
  return seqs;
}

io::json::Value parse_bundle(const std::string& text) {
  io::json::Value root;
  std::string error;
  EXPECT_TRUE(io::json::parse(text, &root, &error)) << error;
  return root;
}

// -------------------------------------------------------- ring behavior

TEST(FlightRecorderTest, RingWrapAroundFreezesTheMostRecentWindow) {
  FlightRecorder rec(small_config());  // capacity 8, pre 8, post 2
  for (std::uint64_t s = 0; s < 20; ++s) rec.record(make_record(s));
  EXPECT_EQ(rec.records_seen(), 20u);

  // The trigger arms; the next record() freezes the pre-window first,
  // so the ring's survivors at freeze time are seqs 12..19.
  EXPECT_TRUE(rec.request_trigger(IncidentCause::kOperator, 19, "wrap"));
  rec.record(make_record(20));
  EXPECT_TRUE(rec.incident_open());
  rec.record(make_record(21));  // post-window full -> bundle emitted
  EXPECT_FALSE(rec.incident_open());
  ASSERT_EQ(rec.incidents_emitted(), 1u);

  const io::json::Value root = parse_bundle(rec.bundle_json(1));
  const std::vector<std::uint64_t> pre = window_seqs(root, "pre");
  const std::vector<std::uint64_t> post = window_seqs(root, "post");
  ASSERT_EQ(pre.size(), 8u);
  for (std::size_t i = 0; i < pre.size(); ++i) EXPECT_EQ(pre[i], 12 + i);
  ASSERT_EQ(post.size(), 2u);
  EXPECT_EQ(post[0], 20u);
  EXPECT_EQ(post[1], 21u);
}

TEST(FlightRecorderTest, PreAndPostWindowsAreDisjointAndContiguous) {
  FlightRecorderConfig fc = small_config();
  fc.ring_capacity = 16;
  fc.pre_trigger = 4;
  fc.post_trigger = 3;
  FlightRecorder rec(fc);
  for (std::uint64_t s = 0; s < 10; ++s) rec.record(make_record(s));
  EXPECT_TRUE(rec.request_trigger(IncidentCause::kDriftAlarm, 9, "drift"));
  for (std::uint64_t s = 10; s < 13; ++s) rec.record(make_record(s));
  ASSERT_EQ(rec.incidents_emitted(), 1u);

  // The trigger frame (seq 9) is the *last* pre-window record; the first
  // record stored after the arm opens the post-window.  Nothing repeats.
  const io::json::Value root = parse_bundle(rec.bundle_json(1));
  const std::vector<std::uint64_t> pre = window_seqs(root, "pre");
  const std::vector<std::uint64_t> post = window_seqs(root, "post");
  ASSERT_EQ(pre.size(), 4u);
  ASSERT_EQ(post.size(), 3u);
  EXPECT_EQ(pre.back(), 9u);
  EXPECT_EQ(post.front(), 10u);
  for (std::size_t i = 1; i < pre.size(); ++i) {
    EXPECT_EQ(pre[i], pre[i - 1] + 1);
  }
  for (std::size_t i = 1; i < post.size(); ++i) {
    EXPECT_EQ(post[i], post[i - 1] + 1);
  }

  const std::vector<obs::IncidentSummary> incidents = rec.incidents();
  ASSERT_EQ(incidents.size(), 1u);
  EXPECT_EQ(incidents[0].trigger_seq, 9u);
  EXPECT_EQ(incidents[0].cause, IncidentCause::kDriftAlarm);
  EXPECT_EQ(incidents[0].pre_records, 4u);
  EXPECT_EQ(incidents[0].post_records, 3u);
}

TEST(FlightRecorderTest, ShortHistoryYieldsAShortPreWindow) {
  FlightRecorder rec(small_config());  // pre 8, but only 3 records exist
  for (std::uint64_t s = 0; s < 3; ++s) rec.record(make_record(s));
  EXPECT_TRUE(rec.request_trigger(IncidentCause::kOperator, 2, "early"));
  for (std::uint64_t s = 3; s < 5; ++s) rec.record(make_record(s));
  ASSERT_EQ(rec.incidents_emitted(), 1u);
  const std::vector<obs::IncidentSummary> incidents = rec.incidents();
  EXPECT_EQ(incidents[0].pre_records, 3u);
  EXPECT_EQ(incidents[0].post_records, 2u);
}

// ------------------------------------------- coalescing and suppression

TEST(FlightRecorderTest, TriggersWhileArmedOrOpenAreCoalesced) {
  FlightRecorderConfig fc = small_config();
  fc.post_trigger = 4;
  FlightRecorder rec(fc);
  for (std::uint64_t s = 0; s < 4; ++s) rec.record(make_record(s));
  EXPECT_TRUE(rec.request_trigger(IncidentCause::kAnomalyVerdict, 3, "first"));
  // Still armed: merged, not a second incident.
  EXPECT_FALSE(rec.request_trigger(IncidentCause::kOperator, 3, "second"));
  rec.record(make_record(4));  // freeze; post-window open
  // Open: still merged.
  EXPECT_FALSE(rec.request_trigger(IncidentCause::kDriftAlarm, 4, "third"));
  for (std::uint64_t s = 5; s < 8; ++s) rec.record(make_record(s));
  ASSERT_EQ(rec.incidents_emitted(), 1u);
  EXPECT_EQ(rec.triggers_coalesced(), 2u);

  const std::vector<obs::IncidentSummary> incidents = rec.incidents();
  ASSERT_EQ(incidents.size(), 1u);
  // The first trigger wins the cause.  The bundle reports merges that
  // landed during *its* capture window (the open phase); the armed-phase
  // merge shows up only in the recorder-wide counter above.
  EXPECT_EQ(incidents[0].cause, IncidentCause::kAnomalyVerdict);
  EXPECT_EQ(incidents[0].coalesced, 1u);
}

TEST(FlightRecorderTest, MaxIncidentsCapSuppressesFurtherBundles) {
  FlightRecorderConfig fc = small_config();
  fc.post_trigger = 1;
  fc.max_incidents = 1;
  FlightRecorder rec(fc);
  for (std::uint64_t s = 0; s < 4; ++s) rec.record(make_record(s));
  EXPECT_TRUE(rec.request_trigger(IncidentCause::kOperator, 3, "kept"));
  rec.record(make_record(4));
  ASSERT_EQ(rec.incidents_emitted(), 1u);

  rec.request_trigger(IncidentCause::kOperator, 4, "capped");
  for (std::uint64_t s = 5; s < 10; ++s) rec.record(make_record(s));
  EXPECT_EQ(rec.incidents_emitted(), 1u);
  EXPECT_EQ(rec.incidents_suppressed(), 1u);
  EXPECT_EQ(rec.incidents().size(), 1u);
}

TEST(FlightRecorderTest, FlushEmitsThePartialPostWindow) {
  FlightRecorderConfig fc = small_config();
  fc.post_trigger = 16;
  FlightRecorder rec(fc);
  for (std::uint64_t s = 0; s < 4; ++s) rec.record(make_record(s));
  EXPECT_TRUE(rec.request_trigger(IncidentCause::kRetrainRollback, 3, "eof"));
  rec.record(make_record(4));  // one post record, 15 still owed
  EXPECT_TRUE(rec.incident_open());
  rec.flush();  // quiescence: emit with what exists
  EXPECT_FALSE(rec.incident_open());
  ASSERT_EQ(rec.incidents_emitted(), 1u);
  const std::vector<obs::IncidentSummary> incidents = rec.incidents();
  EXPECT_EQ(incidents[0].pre_records, 4u);
  EXPECT_EQ(incidents[0].post_records, 1u);
}

TEST(FlightRecorderTest, FlushConsumesAnArmedTriggerWithNoPostRecords) {
  FlightRecorder rec(small_config());
  for (std::uint64_t s = 0; s < 4; ++s) rec.record(make_record(s));
  EXPECT_TRUE(rec.request_trigger(IncidentCause::kOperator, 3, "tail"));
  rec.flush();  // no record() ever consumed the arm
  ASSERT_EQ(rec.incidents_emitted(), 1u);
  const std::vector<obs::IncidentSummary> incidents = rec.incidents();
  EXPECT_EQ(incidents[0].pre_records, 4u);
  EXPECT_EQ(incidents[0].post_records, 0u);
}

// ------------------------------------------------- bundle shape on disk

TEST(FlightRecorderTest, BundleSchemaMetricsAndDiskCopyAgree) {
  obs::MetricsRegistry registry;
  FlightRecorderConfig fc = small_config();
  fc.bus = "test_bus";
  fc.post_trigger = 1;
  fc.incident_dir = ::testing::TempDir() + "/fr_bundles";
  fc.metrics = &registry;
  FlightRecorder rec(fc);
  for (std::uint64_t s = 0; s < 6; ++s) rec.record(make_record(s));
  EXPECT_TRUE(rec.request_trigger(IncidentCause::kOperator, 5, "disk"));
  rec.record(make_record(6));
  ASSERT_EQ(rec.incidents_emitted(), 1u);

  const std::string json = rec.bundle_json(1);
  ASSERT_FALSE(json.empty());
  const io::json::Value root = parse_bundle(json);
  const io::json::Value* schema = io::json::get(&root, "schema");
  ASSERT_NE(schema, nullptr);
  EXPECT_EQ(schema->string, "vprofile-incident-v1");
  const io::json::Value* manifest = io::json::get(&root, "manifest");
  const io::json::Value* tool = io::json::get(manifest, "tool");
  ASSERT_NE(tool, nullptr);
  EXPECT_EQ(tool->string, "test_flight_recorder");
  const io::json::Value* incident = io::json::get(&root, "incident");
  const io::json::Value* cause = io::json::get(incident, "cause");
  ASSERT_NE(cause, nullptr);
  EXPECT_EQ(cause->string, "operator");

  // The on-disk bundle is the same bytes the retained copy holds.
  const std::vector<obs::IncidentSummary> incidents = rec.incidents();
  ASSERT_EQ(incidents.size(), 1u);
  ASSERT_FALSE(incidents[0].path.empty());
  std::ifstream in(incidents[0].path, std::ios::binary);
  ASSERT_TRUE(in.good()) << incidents[0].path;
  std::ostringstream buf;
  buf << in.rdbuf();
  EXPECT_EQ(buf.str(), json);

  // Eager per-cause registration: every cause exports from frame zero,
  // and the fired one reads 1.
  std::uint64_t causes_seen = 0;
  for (const obs::MetricSample& s : registry.samples()) {
    if (s.name != "incidents_total") continue;
    ++causes_seen;
    std::string cause_label;
    for (const auto& [k, v] : s.labels) {
      if (k == "cause") cause_label = v;
    }
    EXPECT_EQ(s.counter_value, cause_label == "operator" ? 1u : 0u)
        << cause_label;
  }
  EXPECT_EQ(causes_seen, obs::kNumIncidentCauses);
}

// --------------------------------------------- supervisor integration

struct Fixture {
  std::optional<sim::Vehicle> vehicle;
  std::optional<vprofile::Model> model;
  vprofile::ExtractionConfig extraction;
  std::vector<dsp::Trace> traces;  // benign stream
};

const Fixture& fixture() {
  static const Fixture f = [] {
    Fixture fx;
    fx.vehicle.emplace(sim::vehicle_a(), 11);
    const analog::Environment env = analog::Environment::reference();
    fx.extraction = sim::default_extraction(fx.vehicle->config());
    std::vector<vprofile::EdgeSet> training;
    for (const sim::Capture& cap : fx.vehicle->capture(900, env)) {
      if (auto es = vprofile::extract_edge_set(cap.codes, fx.extraction)) {
        training.push_back(std::move(*es));
      }
    }
    vprofile::TrainingConfig tc;
    tc.extraction = fx.extraction;
    auto out =
        vprofile::train_with_database(training, fx.vehicle->database(), tc);
    EXPECT_TRUE(out.ok()) << out.error;
    if (!out.ok()) return fx;
    fx.model = std::move(*out.model);
    for (sim::LabeledCapture& lc :
         sim::make_normal_stream(*fx.vehicle, 40, env)) {
      fx.traces.push_back(std::move(lc.capture.codes));
    }
    return fx;
  }();
  return f;
}

/// One deterministic supervised run with the recorder on: lockstep, no
/// online update, a fixed manifest, and an operator trigger at a fixed
/// frame.  The post-trigger window is wider than the stream remainder,
/// so the bundle is emitted by flush() at finish() — at quiescence —
/// which is what makes the context counters (live pipeline snapshots)
/// byte-stable too; a mid-stream emission snapshots them while workers
/// are still scoring ahead of the serialized handler.  Returns the first
/// bundle plus the sink's view of every result.
struct SupervisedRun {
  std::string bundle;
  std::map<std::uint64_t, pipeline::FrameResult> results;
};

SupervisedRun run_supervised(std::size_t workers) {
  const Fixture& fx = fixture();
  SupervisedRun out;
  runtime::SupervisorConfig sc;
  sc.pipeline.num_workers = workers;
  sc.pipeline.keep_edge_set = true;  // evidence retains feature vectors
  sc.online_update = false;
  sc.lockstep = true;
  sc.flight_recorder = true;
  sc.recorder.bus = "test_bus";
  sc.recorder.ring_capacity = 32;
  sc.recorder.pre_trigger = 8;
  sc.recorder.post_trigger = 1024;
  sc.recorder.manifest.tool = "test_flight_recorder";
  sc.recorder.manifest.git_describe = "test";
  sc.recorder.manifest.iso8601 = "1970-01-01T00:00:00Z";
  runtime::Supervisor sup(*fx.model, sc, [&](const pipeline::FrameResult& r) {
    out.results.emplace(r.seq, r);
  });
  for (std::size_t i = 0; i < fx.traces.size(); ++i) {
    sup.submit(fx.traces[i]);
    // Lockstep: frame i is fully handled here, so the trigger lands at
    // the same frames_handled in every run regardless of worker count.
    if (i == 19) sup.trigger_incident("fixed-point trigger");
  }
  sup.finish();
  const obs::FlightRecorder* rec = sup.flight_recorder();
  EXPECT_NE(rec, nullptr);
  if (rec != nullptr) {
    EXPECT_GE(rec->incidents_emitted(), 1u);
    out.bundle = rec->bundle_json(1);
  }
  return out;
}

TEST(FlightRecorderSupervisorTest, BundlesAreByteIdenticalAcrossWorkerCounts) {
  const Fixture& fx = fixture();
  ASSERT_TRUE(fx.model.has_value());
  const SupervisedRun one = run_supervised(1);
  const SupervisedRun two = run_supervised(2);
  ASSERT_FALSE(one.bundle.empty());
  // Same seed, same stream, same trigger point: the bundle — manifest,
  // context, evidence doubles — is a pure function of the run.
  EXPECT_EQ(one.bundle, two.bundle);
}

TEST(FlightRecorderSupervisorTest, EvidenceVerdictsMatchTheSinkBitForBit) {
  const Fixture& fx = fixture();
  ASSERT_TRUE(fx.model.has_value());
  const SupervisedRun run = run_supervised(2);
  ASSERT_FALSE(run.bundle.empty());
  const io::json::Value root = parse_bundle(run.bundle);
  const io::json::Value* evidence = io::json::get(&root, "evidence");
  std::size_t checked = 0;
  for (const char* part : {"pre", "post"}) {
    const io::json::Value* window = io::json::get(evidence, part);
    ASSERT_NE(window, nullptr);
    for (const io::json::Value& rec : window->array) {
      const io::json::Value* seq = io::json::get(&rec, "seq");
      const io::json::Value* verdict_code = io::json::get(&rec, "verdict_code");
      const io::json::Value* dist = io::json::get(&rec, "min_distance");
      ASSERT_NE(seq, nullptr);
      if (verdict_code == nullptr || !verdict_code->is_number()) continue;
      const auto it =
          run.results.find(static_cast<std::uint64_t>(seq->number));
      ASSERT_NE(it, run.results.end());
      ASSERT_TRUE(it->second.detection.has_value());
      EXPECT_EQ(static_cast<unsigned>(verdict_code->number),
                static_cast<unsigned>(it->second.detection->verdict));
      // %.17g round-trips doubles exactly: the parsed value must carry
      // the same bit pattern the detector produced.
      double parsed = 0.0;
      ASSERT_TRUE(io::json::flexible_number(*dist, &parsed));
      EXPECT_EQ(std::bit_cast<std::uint64_t>(parsed),
                std::bit_cast<std::uint64_t>(it->second.detection->min_distance));
      ++checked;
    }
  }
  EXPECT_GT(checked, 0u);
}

}  // namespace
