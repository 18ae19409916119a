// bench_pipeline — sequential vs parallel streaming-detection throughput,
// plus the scoring stage in isolation across backends.
//
// Scores one pre-captured hijack stream (Vehicle A) several ways: the
// single-threaded reference (pipeline::score_sequential), the pipeline at
// 1 worker (queue + reorder overhead in isolation), and the pipeline at
// 2/4/8 workers.  Verifies that every parallel verdict stream is
// bit-identical to the sequential one before reporting throughput, and
// also times the parallel trainer.  A second experiment pre-extracts the
// stream's edge sets and times only the scoring stage: the per-frame
// vprofile::detect() loop (the pre-batching baseline) against the SoA
// BatchScorer on each backend (scalar / AVX2), asserting bit-identity
// with the per-frame loop.  Counts scale with
// VPROFILE_BENCH_SCALE like the other benches.  Note: pipeline speedup is
// bounded by the machine's core count — on a single-core container every
// worker arm measures the same work; the scoring-stage arms are
// single-threaded by construction and compare algorithms, not cores.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "core/batch_scorer.hpp"
#include "core/detector.hpp"
#include "core/extractor.hpp"
#include "core/trainer.hpp"
#include "linalg/simd_dispatch.hpp"
#include "pipeline/pipeline.hpp"
#include "sim/attack.hpp"
#include "sim/presets.hpp"
#include "sim/vehicle.hpp"

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

bool streams_identical(const std::vector<pipeline::FrameResult>& a,
                       const std::vector<pipeline::FrameResult>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].seq != b[i].seq || a[i].dropped != b[i].dropped ||
        a[i].extract_error != b[i].extract_error || a[i].sa != b[i].sa ||
        a[i].detection.has_value() != b[i].detection.has_value()) {
      return false;
    }
    if (a[i].detection &&
        (a[i].detection->verdict != b[i].detection->verdict ||
         a[i].detection->min_distance != b[i].detection->min_distance)) {
      return false;
    }
  }
  return true;
}

bool detections_identical(const std::vector<vprofile::Detection>& a,
                          const std::vector<vprofile::Detection>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const bool dist_same =
        a[i].min_distance == b[i].min_distance ||
        (std::isnan(a[i].min_distance) && std::isnan(b[i].min_distance));
    if (a[i].verdict != b[i].verdict || !dist_same ||
        a[i].predicted_cluster != b[i].predicted_cluster) {
      return false;
    }
  }
  return true;
}

}  // namespace

int main() {
  bench::open_report("pipeline");
  const std::size_t train_count = bench::scaled(2000);
  const std::size_t stream_count = bench::scaled(6000);
  const unsigned hw = std::thread::hardware_concurrency();

  bench::print_header("pipeline throughput: sequential vs parallel");
  std::printf("hardware threads: %u   train %zu msgs, stream %zu msgs\n\n",
              hw, train_count, stream_count);

  const sim::VehicleConfig config = sim::vehicle_a();
  sim::Vehicle vehicle(config, bench::bench_seed("pipeline"));
  const analog::Environment env = analog::Environment::reference();
  const vprofile::ExtractionConfig extraction = sim::default_extraction(config);

  // --- Training: single-threaded vs per-cluster parallel. ---
  std::vector<vprofile::EdgeSet> edge_sets;
  edge_sets.reserve(train_count);
  for (const sim::Capture& cap : vehicle.capture(train_count, env)) {
    if (auto es = vprofile::extract_edge_set(cap.codes, extraction)) {
      edge_sets.push_back(std::move(*es));
    }
  }
  vprofile::TrainingConfig tc;
  tc.extraction = extraction;
  tc.num_threads = 1;
  auto t0 = Clock::now();
  vprofile::TrainOutcome trained =
      vprofile::train_with_database(edge_sets, vehicle.database(), tc);
  const double train_seq_s = seconds_since(t0);
  if (!trained.ok()) {
    std::fprintf(stderr, "training failed: %s\n", trained.error.c_str());
    return 1;
  }
  tc.num_threads = 4;
  t0 = Clock::now();
  const vprofile::TrainOutcome trained4 =
      vprofile::train_with_database(edge_sets, vehicle.database(), tc);
  const double train_par_s = seconds_since(t0);
  std::printf("train (%zu edge sets, %zu clusters):\n", edge_sets.size(),
              trained.model->clusters().size());
  std::printf("  1 thread   %7.3f s\n", train_seq_s);
  std::printf("  4 threads  %7.3f s   speedup %.2fx\n\n", train_par_s,
              train_par_s > 0.0 ? train_seq_s / train_par_s : 0.0);
  bench::report_section_ns("train/1-thread",
                           static_cast<std::uint64_t>(train_seq_s * 1e9));
  bench::report_section_ns("train/4-threads",
                           static_cast<std::uint64_t>(train_par_s * 1e9));
  if (!trained4.ok()) {
    std::fprintf(stderr, "parallel training failed: %s\n",
                 trained4.error.c_str());
    return 1;
  }
  const vprofile::Model& model = *trained.model;

  // --- Streaming detection. ---
  std::vector<dsp::Trace> traces;
  traces.reserve(stream_count);
  for (sim::LabeledCapture& lc :
       sim::make_hijack_stream(vehicle, stream_count, 0.2, env)) {
    traces.push_back(std::move(lc.capture.codes));
  }
  const vprofile::DetectionConfig dc{0.5};

  // Pre-extract the stream's edge sets for the scoring-stage arms below.
  // Done before any detection arm runs so the sample vectors get a clean,
  // dense heap layout — extracting after the pipeline arms measurably
  // scatters them across pages churned by per-frame scratch allocations,
  // and the scoring arms would then time the allocator's history instead
  // of the kernels.
  std::vector<vprofile::EdgeSet> stream_sets;
  stream_sets.reserve(traces.size());
  for (const dsp::Trace& trace : traces) {
    if (auto es = vprofile::extract_edge_set(trace, extraction)) {
      stream_sets.push_back(std::move(*es));
    }
  }

  t0 = Clock::now();
  const std::vector<pipeline::FrameResult> reference =
      pipeline::score_sequential(model, traces, dc);
  const double seq_s = seconds_since(t0);
  const double seq_fps = static_cast<double>(traces.size()) / seq_s;
  std::printf("detect (%zu msgs):\n", traces.size());
  std::printf("  sequential  %7.3f s  %9.0f msg/s  (baseline)\n", seq_s,
              seq_fps);
  bench::report_section_ns("detect/sequential",
                           static_cast<std::uint64_t>(seq_s * 1e9),
                           {{"msg_per_s", seq_fps}});

  // The plan every pipeline builds for itself (default dispatch); the
  // worker arms are labelled with the backend it resolved to.
  const vprofile::ScoringPlan serving_plan(model);
  for (const std::size_t workers : {1u, 2u, 4u, 8u}) {
    pipeline::PipelineConfig pc;
    pc.num_workers = workers;
    pc.queue_capacity = 512;
    pc.detection = dc;
    std::vector<pipeline::FrameResult> results;
    results.reserve(traces.size());
    t0 = Clock::now();
    {
      pipeline::DetectionPipeline pipe(
          model, pc, [&](pipeline::FrameResult&& r) {
            results.push_back(std::move(r));
          });
      for (const dsp::Trace& trace : traces) pipe.submit(trace);
      pipe.finish();
    }
    const double par_s = seconds_since(t0);
    const bool identical = streams_identical(reference, results);
    // Label each arm with the backend its workers actually ran and the
    // configured scoring batch size.
    bench::report_section_ns(
        "detect/" + std::to_string(workers) + "-workers/" +
            linalg::simd::to_string(serving_plan.backend()),
        static_cast<std::uint64_t>(par_s * 1e9),
        {{"msg_per_s", static_cast<double>(traces.size()) / par_s},
         {"speedup", seq_s / par_s},
         {"identical", identical ? 1.0 : 0.0},
         {"batch_size", static_cast<double>(pc.batch_size)}});
    std::printf("  %zu worker%s   %7.3f s  %9.0f msg/s  speedup %.2fx  "
                "verdicts %s\n",
                workers, workers == 1 ? " " : "s", par_s,
                static_cast<double>(traces.size()) / par_s, seq_s / par_s,
                identical ? "identical" : "MISMATCH");
    if (!identical) return 1;
  }

  // --- Scoring stage in isolation: per-frame oracle vs SoA batches. ---
  // Extraction was hoisted out (above) so the arms time only feature
  // scoring: the per-frame vprofile::detect() loop is exactly the
  // pre-batching hot path, and every batch arm scores the same edge sets
  // in the same order.  Every backend must reproduce the oracle
  // bit-for-bit.
  std::vector<const vprofile::EdgeSet*> set_ptrs;
  set_ptrs.reserve(stream_sets.size());
  for (const vprofile::EdgeSet& es : stream_sets) set_ptrs.push_back(&es);

  const std::size_t score_reps = 5;
  const double scored_total =
      static_cast<double>(stream_sets.size() * score_reps);

  std::vector<vprofile::Detection> oracle(stream_sets.size());
  t0 = Clock::now();
  for (std::size_t rep = 0; rep < score_reps; ++rep) {
    for (std::size_t i = 0; i < stream_sets.size(); ++i) {
      oracle[i] = vprofile::detect(model, stream_sets[i], dc);
    }
  }
  const double base_s = seconds_since(t0);
  const double base_fps = scored_total / base_s;
  std::printf("\nscoring stage (%zu edge sets x %zu reps):\n",
              stream_sets.size(), score_reps);
  std::printf("  per-frame        %7.3f s  %9.0f msg/s  (baseline)\n",
              base_s, base_fps);
  bench::report_section_ns("score/per-frame",
                           static_cast<std::uint64_t>(base_s * 1e9),
                           {{"batch_size", 1.0}, {"msg_per_s", base_fps}});

  const std::size_t batch = 32;
  struct ScoreArm {
    const char* label;
    linalg::simd::Backend requested;
  };
  const ScoreArm score_arms[] = {
      {"scalar", linalg::simd::Backend::kScalar},
      {"avx2", linalg::simd::Backend::kAvx2},
  };
  for (const ScoreArm& arm : score_arms) {
    const vprofile::ScoringPlan plan(model, arm.requested);
    if (plan.backend() != arm.requested) {
      std::printf("  batch%zu/%-7s %s resolved to %s; skipped\n", batch,
                  arm.label, arm.label,
                  linalg::simd::to_string(plan.backend()));
      continue;
    }
    vprofile::BatchScorer scorer(plan);
    std::vector<vprofile::Detection> got(stream_sets.size());
    t0 = Clock::now();
    for (std::size_t rep = 0; rep < score_reps; ++rep) {
      for (std::size_t i = 0; i < set_ptrs.size(); i += batch) {
        const std::size_t chunk = std::min(batch, set_ptrs.size() - i);
        scorer.detect(set_ptrs.data() + i, chunk, dc, got.data() + i);
      }
    }
    const double arm_s = seconds_since(t0);
    const bool identical = detections_identical(oracle, got);
    bench::report_section_ns(
        "score/batch" + std::to_string(batch) + "/" + arm.label,
        static_cast<std::uint64_t>(arm_s * 1e9),
        {{"batch_size", static_cast<double>(batch)},
         {"msg_per_s", scored_total / arm_s},
         {"speedup_vs_per_frame", base_s / arm_s},
         {"identical", identical ? 1.0 : 0.0}});
    std::printf("  batch%zu/%-7s  %7.3f s  %9.0f msg/s  speedup %.2fx  "
                "verdicts %s\n",
                batch, arm.label, arm_s, scored_total / arm_s,
                base_s / arm_s,
                identical ? "identical" : "MISMATCH");
    if (!identical) return 1;
  }

  std::printf("\nnote: expect ~linear scaling up to the physical core "
              "count; this host reports %u.\n", hw);
  return 0;
}
