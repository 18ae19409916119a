// Traffic and the paper oracle for the end-to-end benchmark.
//
// Everything here happens outside the timed loops.  A Profile is one
// synthesized vehicle bus: its training captures (the tenants' start-up
// input), its pool of serving traces, the model trained once for the
// oracle, and the oracle's outcome for every pool trace
// (vprofile::extract_edge_set followed by vprofile::detect).  All seeds
// derive from the run seed through sim::derive_stream_seed.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "core/detector.hpp"
#include "core/edge_set.hpp"
#include "core/model.hpp"
#include "core/trainer.hpp"
#include "core/units.hpp"
#include "dsp/trace.hpp"
#include "pipeline/pipeline.hpp"
#include "sim/vehicle.hpp"

namespace e2e {

/// How one frame ended, in the supervisor's fingerprint encoding:
/// 16 + ExtractError on extraction errors, 32 + Verdict on a verdict (and
/// 1 / 2 for dropped / worker-error results, which the oracle never gives).
struct Outcome {
  std::uint64_t code = 0;
  std::uint64_t distance_bits = 0;  // bit pattern of min_distance; 0 unless scored
  bool scored = false;

  bool operator==(const Outcome&) const = default;
};

/// The outcome a pipeline result reports.
Outcome outcome_of(const pipeline::FrameResult& result);

/// The paper's per-frame path: extract_edge_set, then detect.
Outcome oracle_outcome(const vprofile::Model& model, const dsp::Trace& trace,
                       const vprofile::DetectionConfig& detection);

struct ProfileSpec {
  std::string name;          // "a0".."b3"; also the seed purpose suffix
  bool vehicle_b = false;    // vehicle B (10 close ECUs) instead of A
  std::size_t train = 0;     // clean training captures
  std::size_t pool = 0;      // serving traces
  double hijack = 0.0;       // hijack probability of the serving stream
  bool harsh = false;        // pass the pool through harsh_environment()
};

struct Profile {
  ProfileSpec spec;
  sim::VehicleConfig config;
  vprofile::SaDatabase database;
  vprofile::ExtractionConfig extraction;
  vprofile::DetectionConfig detection;
  std::vector<dsp::Trace> training;
  std::vector<dsp::Trace> pool;
  std::optional<vprofile::Model> model;  // trained once, for the oracle
  std::vector<Outcome> oracle;           // per pool index
};

/// Synthesizes the captures, trains the oracle model and precomputes the
/// oracle outcome of every pool trace.  Throws std::runtime_error when
/// training fails.
Profile make_profile(units::Seed64 run_seed, const ProfileSpec& spec);

/// Per-tenant start-up work: extract the training captures and train —
/// what a tenant pays before it can register.  Throws on failure.
vprofile::Model train_tenant_model(const Profile& profile);

/// The fingerprint FleetService reports for a tenant whose single
/// lockstep supervisor handled `frames` frames, the j-th being pool trace
/// (offset + j) % pool size, with no shedding, promotion or rollback.
std::uint64_t oracle_tenant_fingerprint(const Profile& profile,
                                        std::size_t offset,
                                        std::uint64_t frames);

/// Oracle outcome counts over the same frame sequence.
struct OutcomeCounts {
  std::uint64_t ok = 0;
  std::uint64_t anomaly = 0;
  std::uint64_t extract_error = 0;
};
void count_outcomes(const Profile& profile, std::size_t offset,
                    std::uint64_t frames, OutcomeCounts* counts);

}  // namespace e2e
