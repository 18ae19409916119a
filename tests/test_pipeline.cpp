// Deterministic-equivalence tests for the streaming pipeline: for several
// seeds and both vehicle presets, the parallel pipeline must emit exactly
// the FrameResult stream the sequential reference produces — same order,
// same verdicts, bit-identical distances — including the extraction error
// paths (kNoSof / kTruncated / kStuffViolation).  Plus the trainer's
// first-failing-cluster error report.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <optional>
#include <thread>
#include <vector>

#include "core/extractor.hpp"
#include "core/trainer.hpp"
#include "dsp/trace.hpp"
#include "pipeline/pipeline.hpp"
#include "sim/attack.hpp"
#include "sim/presets.hpp"
#include "sim/vehicle.hpp"

namespace {

using pipeline::DetectionPipeline;
using pipeline::FrameResult;
using pipeline::PipelineConfig;
using vprofile::ExtractError;

struct Fixture {
  std::optional<sim::Vehicle> vehicle;
  std::optional<vprofile::Model> model;
  std::vector<dsp::Trace> traces;
};

/// Trains a small model and builds a mixed stream: hijack traffic with a
/// corrupted trace of each failure mode spliced in at fixed positions.
Fixture make_fixture(const sim::VehicleConfig& config, std::uint64_t seed,
                     std::size_t train_count, std::size_t stream_count) {
  Fixture f;
  f.vehicle.emplace(config, seed);
  const analog::Environment env = analog::Environment::reference();
  const vprofile::ExtractionConfig extraction = sim::default_extraction(config);

  std::vector<vprofile::EdgeSet> edge_sets;
  for (const sim::Capture& cap : f.vehicle->capture(train_count, env)) {
    auto es = vprofile::extract_edge_set(cap.codes, extraction);
    if (es) edge_sets.push_back(std::move(*es));
  }
  vprofile::TrainingConfig tc;
  tc.extraction = extraction;
  vprofile::TrainOutcome out =
      vprofile::train_with_database(edge_sets, f.vehicle->database(), tc);
  EXPECT_TRUE(out.ok()) << out.error;
  if (!out.ok()) return f;
  f.model = std::move(*out.model);

  for (sim::LabeledCapture& lc :
       sim::make_hijack_stream(*f.vehicle, stream_count, 0.2, env)) {
    f.traces.push_back(std::move(lc.capture.codes));
  }

  // Corrupt three traces, one per failure mode.
  const std::size_t bw = extraction.bit_width_samples;
  const double threshold = extraction.bit_threshold;
  // kNoSof: never crosses the bit threshold.
  f.traces[1].assign(f.traces[1].size(), 0.0);
  // kTruncated: ends mid-arbitration.
  {
    dsp::Trace& t = f.traces[3];
    const auto sof = dsp::find_sof(t, threshold);
    EXPECT_TRUE(sof.has_value());
    t.resize(*sof + 5 * bw);
  }
  // kStuffViolation: six-plus consecutive dominant bits early in the frame.
  {
    dsp::Trace& t = f.traces[5];
    const auto sof = dsp::find_sof(t, threshold);
    EXPECT_TRUE(sof.has_value());
    const double dominant = *std::max_element(t.begin(), t.end());
    const std::size_t first = *sof + 2 * bw;
    const std::size_t last = std::min(t.size(), first + 9 * bw);
    std::fill(t.begin() + first, t.begin() + last, dominant);
  }
  return f;
}

/// Runs the pipeline over the traces and returns the sink's stream.
std::vector<FrameResult> run_pipeline(const vprofile::Model& model,
                                      const std::vector<dsp::Trace>& traces,
                                      const vprofile::DetectionConfig& dc,
                                      std::size_t workers,
                                      std::size_t queue_capacity = 64) {
  PipelineConfig pc;
  pc.num_workers = workers;
  pc.queue_capacity = queue_capacity;
  pc.detection = dc;
  std::vector<FrameResult> results;
  results.reserve(traces.size());
  DetectionPipeline pipe(model, pc, [&](FrameResult&& r) {
    results.push_back(std::move(r));
  });
  for (const dsp::Trace& t : traces) {
    EXPECT_TRUE(pipe.submit(t).has_value());
  }
  pipe.finish();
  return results;
}

void expect_identical(const std::vector<FrameResult>& a,
                      const std::vector<FrameResult>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    SCOPED_TRACE(i);
    EXPECT_EQ(a[i].seq, b[i].seq);
    EXPECT_EQ(a[i].dropped, b[i].dropped);
    EXPECT_EQ(a[i].extract_error, b[i].extract_error);
    EXPECT_EQ(a[i].sa, b[i].sa);
    ASSERT_EQ(a[i].detection.has_value(), b[i].detection.has_value());
    if (a[i].detection) {
      EXPECT_EQ(a[i].detection->verdict, b[i].detection->verdict);
      EXPECT_EQ(a[i].detection->expected_cluster,
                b[i].detection->expected_cluster);
      EXPECT_EQ(a[i].detection->predicted_cluster,
                b[i].detection->predicted_cluster);
      // Bit-identical, not approximately equal: the pipeline runs the very
      // same scoring code on the very same inputs.
      EXPECT_EQ(a[i].detection->min_distance, b[i].detection->min_distance);
    }
  }
}

TEST(PipelineEquivalence, MatchesSequentialAcrossSeedsAndVehicles) {
  struct Case {
    sim::VehicleConfig config;
    std::uint64_t seed;
    std::size_t train;
    std::size_t stream;
  };
  const Case cases[] = {
      {sim::vehicle_a(), 11, 900, 160},
      {sim::vehicle_a(), 12, 900, 160},
      {sim::vehicle_b(), 13, 1400, 120},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.config.name + " seed " + std::to_string(c.seed));
    Fixture f = make_fixture(c.config, c.seed, c.train, c.stream);
    ASSERT_TRUE(f.model.has_value());
    const vprofile::DetectionConfig dc{0.5};
    const auto sequential =
        pipeline::score_sequential(*f.model, f.traces, dc);
    const auto parallel = run_pipeline(*f.model, f.traces, dc, 4);
    expect_identical(sequential, parallel);
    // Sequence numbers are dense and in capture order.
    for (std::size_t i = 0; i < parallel.size(); ++i) {
      EXPECT_EQ(parallel[i].seq, i);
    }
  }
}

TEST(PipelineEquivalence, ExtractErrorPathsSurviveThePipeline) {
  Fixture f = make_fixture(sim::vehicle_a(), 21, 900, 60);
  ASSERT_TRUE(f.model.has_value());
  const auto results =
      run_pipeline(*f.model, f.traces, vprofile::DetectionConfig{}, 3);
  ASSERT_EQ(results.size(), f.traces.size());
  EXPECT_EQ(results[1].extract_error, ExtractError::kNoSof);
  EXPECT_EQ(results[3].extract_error, ExtractError::kTruncated);
  EXPECT_EQ(results[5].extract_error, ExtractError::kStuffViolation);
  for (const std::size_t i : {1, 3, 5}) {
    EXPECT_FALSE(results[i].ok());
    EXPECT_FALSE(results[i].detection.has_value());
  }
  // Everything else scored normally.
  std::size_t scored = 0;
  for (const FrameResult& r : results) scored += r.ok() ? 1 : 0;
  EXPECT_EQ(scored, results.size() - 3);
}

TEST(PipelineEquivalence, WorkerCountDoesNotChangeTheStream) {
  Fixture f = make_fixture(sim::vehicle_a(), 31, 900, 100);
  ASSERT_TRUE(f.model.has_value());
  const vprofile::DetectionConfig dc{1.0};
  const auto reference = run_pipeline(*f.model, f.traces, dc, 1);
  for (const std::size_t workers : {2, 3, 8}) {
    SCOPED_TRACE(workers);
    expect_identical(reference,
                     run_pipeline(*f.model, f.traces, dc, workers,
                                  /*queue_capacity=*/8));
  }
}

TEST(PipelineEquivalence, CountersAccountForEveryFrame) {
  Fixture f = make_fixture(sim::vehicle_a(), 41, 900, 80);
  ASSERT_TRUE(f.model.has_value());
  PipelineConfig pc;
  pc.num_workers = 2;
  pc.queue_capacity = 16;
  std::size_t emitted = 0;
  DetectionPipeline pipe(*f.model, pc, [&](FrameResult&&) { ++emitted; });
  for (const dsp::Trace& t : f.traces) pipe.submit(t);
  pipe.finish();
  const pipeline::CountersSnapshot c = pipe.counters();
  EXPECT_EQ(c.submitted.value(), f.traces.size());
  EXPECT_EQ(c.completed.value(), f.traces.size());
  EXPECT_EQ(c.dropped.value(), 0u);
  EXPECT_EQ(emitted, f.traces.size());
  EXPECT_GE(c.queue_high_watermark, 1u);
  EXPECT_LE(c.queue_high_watermark, pc.queue_capacity);
  EXPECT_GT(c.extract_ns, 0u);
}

TEST(PipelineEquivalence, DropPathKeepsCountersConsistent) {
  // Regression test for the finish()-time conservation law with drops in
  // play: every submitted frame must land in exactly one of
  // completed/dropped, and every completed frame in exactly one outcome
  // bucket (verdict or extraction failure).  A sink that sleeps makes the
  // one-slot queue overflow on real mixed traffic (valid frames plus the
  // fixture's three corrupted traces), so all three paths — verdicts,
  // extraction failures, and drops — are exercised at once.
  Fixture f = make_fixture(sim::vehicle_a(), 71, 900, 300);
  ASSERT_TRUE(f.model.has_value());
  PipelineConfig pc;
  pc.num_workers = 1;
  pc.queue_capacity = 1;
  pc.block_when_full = false;
  std::size_t emitted = 0;
  DetectionPipeline pipe(*f.model, pc, [&](FrameResult&&) {
    std::this_thread::sleep_for(std::chrono::microseconds(200));
    ++emitted;
  });
  for (const dsp::Trace& t : f.traces) pipe.submit(t);
  pipe.finish();
  const pipeline::CountersSnapshot c = pipe.counters();
  EXPECT_GT(c.dropped.value(), 0u)
      << "queue never overflowed; slow the sink or shrink the queue";
  EXPECT_EQ(emitted, f.traces.size());  // dropped frames still emitted
  EXPECT_EQ(c.submitted.value(), f.traces.size());
  EXPECT_TRUE(c.consistent());
  EXPECT_EQ(c.completed.value(), c.classified() + c.extract_failures());
  EXPECT_GT(c.classified(), 0u);
}

TEST(PipelineEquivalence, SubmitAfterFinishIsRefused) {
  Fixture f = make_fixture(sim::vehicle_a(), 51, 900, 10);
  ASSERT_TRUE(f.model.has_value());
  std::size_t emitted = 0;
  DetectionPipeline pipe(*f.model, PipelineConfig{},
                         [&](FrameResult&&) { ++emitted; });
  for (const dsp::Trace& t : f.traces) pipe.submit(t);
  pipe.finish();
  EXPECT_FALSE(pipe.submit(f.traces.front()).has_value());
  EXPECT_EQ(emitted, f.traces.size());
  EXPECT_EQ(pipe.counters().submitted.value(), f.traces.size());
}

TEST(PipelineRobustness, ThrowingStageCostsOneFrameNotTheWorker) {
  // A stage that throws mid-stream must be contained per frame: the worker
  // survives, the poisoned frames come back as worker_error results in
  // order, and every other frame scores exactly as the sequential
  // reference says.  Before containment this was std::terminate.
  Fixture f = make_fixture(sim::vehicle_a(), 11, 900, 120);
  ASSERT_TRUE(f.model.has_value());
  const vprofile::DetectionConfig dc;
  const auto reference = pipeline::score_sequential(*f.model, f.traces, dc);

  for (const std::size_t workers : {1u, 4u}) {
    PipelineConfig pc;
    pc.num_workers = workers;
    pc.queue_capacity = 32;
    pc.detection = dc;
    pc.stage_hook = [](std::uint64_t seq, const dsp::Trace&) {
      if (seq % 7 == 3) throw std::runtime_error("injected stage failure");
    };
    std::vector<FrameResult> results;
    DetectionPipeline pipe(*f.model, pc, [&](FrameResult&& r) {
      results.push_back(std::move(r));
    });
    for (const dsp::Trace& t : f.traces) pipe.submit(t);
    pipe.finish();

    ASSERT_EQ(results.size(), f.traces.size());
    std::uint64_t errors = 0;
    for (std::size_t i = 0; i < results.size(); ++i) {
      SCOPED_TRACE(i);
      EXPECT_EQ(results[i].seq, i);
      if (i % 7 == 3) {
        ++errors;
        EXPECT_TRUE(results[i].worker_error);
        EXPECT_FALSE(results[i].ok());
        EXPECT_FALSE(results[i].detection.has_value());
      } else {
        EXPECT_FALSE(results[i].worker_error);
        EXPECT_EQ(results[i].extract_error, reference[i].extract_error);
        if (results[i].ok()) {
          EXPECT_EQ(results[i].detection->verdict,
                    reference[i].detection->verdict);
          EXPECT_EQ(results[i].detection->min_distance,
                    reference[i].detection->min_distance);
        }
      }
    }
    const pipeline::CountersSnapshot c = pipe.counters();
    EXPECT_EQ(c.worker_errors, errors);
    EXPECT_TRUE(c.consistent());
  }
}

TEST(PipelineRobustness, KeepEdgeSetRetainsScoredEdgeSets) {
  Fixture f = make_fixture(sim::vehicle_a(), 12, 900, 60);
  ASSERT_TRUE(f.model.has_value());
  const vprofile::DetectionConfig dc;
  const auto reference = pipeline::score_sequential(*f.model, f.traces, dc);

  PipelineConfig pc;
  pc.num_workers = 2;
  pc.detection = dc;
  pc.keep_edge_set = true;
  std::vector<FrameResult> results;
  DetectionPipeline pipe(*f.model, pc, [&](FrameResult&& r) {
    results.push_back(std::move(r));
  });
  for (const dsp::Trace& t : f.traces) pipe.submit(t);
  pipe.finish();

  ASSERT_EQ(results.size(), reference.size());
  for (std::size_t i = 0; i < results.size(); ++i) {
    SCOPED_TRACE(i);
    ASSERT_EQ(results[i].ok(), reference[i].ok());
    if (results[i].ok()) {
      // The retained edge set is the one that was scored: same SA, model
      // dimensionality, and verdicts unchanged by retention.
      ASSERT_TRUE(results[i].edge_set.has_value());
      EXPECT_EQ(results[i].edge_set->sa, results[i].sa);
      EXPECT_EQ(results[i].edge_set->samples.size(), f.model->dimension());
      EXPECT_EQ(results[i].detection->verdict, reference[i].detection->verdict);
      EXPECT_EQ(results[i].detection->min_distance,
                reference[i].detection->min_distance);
    } else {
      EXPECT_FALSE(results[i].edge_set.has_value());
    }
  }
}

TEST(ParallelTrainer, ErrorsAreDeterministicAcrossThreadCounts) {
  sim::Vehicle vehicle(sim::vehicle_a(), 71);
  const vprofile::ExtractionConfig extraction =
      sim::default_extraction(vehicle.config());
  std::vector<vprofile::EdgeSet> edge_sets;
  for (const sim::Capture& cap :
       vehicle.capture(120, analog::Environment::reference())) {
    auto es = vprofile::extract_edge_set(cap.codes, extraction);
    if (es) edge_sets.push_back(std::move(*es));
  }
  vprofile::TrainingConfig tc;
  tc.extraction = extraction;
  // Unsatisfiable: every cluster fails.  Clusters are fitted in name
  // order and the *first* cluster's complaint is the one reported, the
  // same on every run.
  tc.min_cluster_size = 100000;
  const auto first = vprofile::train_with_database(edge_sets,
                                                   vehicle.database(), tc);
  ASSERT_FALSE(first.ok());
  EXPECT_EQ(first.error.rfind("cluster 'ECU 0' has only", 0), 0u)
      << first.error;
  const auto again = vprofile::train_with_database(edge_sets,
                                                   vehicle.database(), tc);
  ASSERT_FALSE(again.ok());
  EXPECT_EQ(first.error, again.error);
}

}  // namespace
