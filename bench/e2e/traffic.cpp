#include "traffic.hpp"

#include <bit>
#include <stdexcept>
#include <utility>

#include "analog/environment.hpp"
#include "core/extractor.hpp"
#include "faults/fault.hpp"
#include "harness.hpp"
#include "sim/attack.hpp"
#include "sim/presets.hpp"
#include "sim/scenario.hpp"

namespace e2e {
namespace {

/// Ridge for the tenants' covariance fits.  train_with_database applies
/// it only when a plain factorization is singular, which 1500 captures
/// make rare; it keeps an unlucky seed from failing the run.  The oracle
/// trains with the same config, so it cannot cause a mismatch.
constexpr double kTrainingRidge = 1.0;

vprofile::TrainingConfig training_config(const Profile& profile) {
  vprofile::TrainingConfig tc;
  tc.extraction = profile.extraction;
  tc.ridge = kTrainingRidge;
  return tc;
}

}  // namespace

Outcome outcome_of(const pipeline::FrameResult& result) {
  Outcome out;
  if (result.dropped) {
    out.code = 1;
  } else if (result.worker_error) {
    out.code = 2;
  } else if (result.extract_error != vprofile::ExtractError::kNone) {
    out.code = 16 + static_cast<std::uint64_t>(result.extract_error);
  } else {
    out.code = 32 + static_cast<std::uint64_t>(result.detection->verdict);
    out.distance_bits =
        std::bit_cast<std::uint64_t>(result.detection->min_distance);
    out.scored = true;
  }
  return out;
}

Outcome oracle_outcome(const vprofile::Model& model, const dsp::Trace& trace,
                       const vprofile::DetectionConfig& detection) {
  Outcome out;
  vprofile::ExtractError err = vprofile::ExtractError::kNone;
  const auto edge_set =
      vprofile::extract_edge_set(trace, model.extraction(), &err);
  if (!edge_set) {
    out.code = 16 + static_cast<std::uint64_t>(err);
    return out;
  }
  const vprofile::Detection det = vprofile::detect(model, *edge_set, detection);
  out.code = 32 + static_cast<std::uint64_t>(det.verdict);
  out.distance_bits = std::bit_cast<std::uint64_t>(det.min_distance);
  out.scored = true;
  return out;
}

Profile make_profile(units::Seed64 run_seed, const ProfileSpec& spec) {
  Profile p;
  p.spec = spec;
  p.config = spec.vehicle_b
                 ? sim::vehicle_b(
                       sim::derive_stream_seed(run_seed, "ecus/" + spec.name)
                           .value())
                 : sim::vehicle_a();
  sim::Vehicle vehicle(p.config,
                       sim::derive_stream_seed(run_seed, "vehicle/" + spec.name));
  p.database = vehicle.database();
  p.extraction = sim::default_extraction(p.config);
  p.detection = sim::scenario_detection_config(p.config, 0.0);

  const analog::Environment env = analog::Environment::reference();
  p.training.reserve(spec.train);
  for (sim::Capture& cap : vehicle.capture(spec.train, env)) {
    p.training.push_back(std::move(cap.codes));
  }
  std::optional<faults::FaultInjector> injector;
  if (spec.harsh) {
    injector.emplace(faults::harsh_environment(),
                     static_cast<double>(p.config.adc.max_code()),
                     sim::derive_stream_seed(run_seed, "faults/" + spec.name));
  }
  p.pool.reserve(spec.pool);
  for (sim::LabeledCapture& lc :
       sim::make_hijack_stream(vehicle, spec.pool, spec.hijack, env)) {
    p.pool.push_back(injector ? injector->apply(lc.capture.codes)
                              : std::move(lc.capture.codes));
  }

  p.model = train_tenant_model(p);
  p.oracle.reserve(p.pool.size());
  for (const dsp::Trace& trace : p.pool) {
    p.oracle.push_back(oracle_outcome(*p.model, trace, p.detection));
  }
  return p;
}

vprofile::Model train_tenant_model(const Profile& profile) {
  std::vector<vprofile::EdgeSet> edge_sets;
  edge_sets.reserve(profile.training.size());
  for (const dsp::Trace& trace : profile.training) {
    if (auto es = vprofile::extract_edge_set(trace, profile.extraction)) {
      edge_sets.push_back(std::move(*es));
    }
  }
  vprofile::TrainOutcome trained = vprofile::train_with_database(
      edge_sets, profile.database, training_config(profile));
  if (!trained.ok()) {
    throw std::runtime_error("profile " + profile.spec.name +
                             ": training failed: " + trained.error);
  }
  return std::move(*trained.model);
}

std::uint64_t oracle_tenant_fingerprint(const Profile& profile,
                                        std::size_t offset,
                                        std::uint64_t frames) {
  // Supervisor::handle folds (global index, outcome code, distance bits
  // when scored); Supervisor::fingerprint appends decimated, promotions
  // and rollbacks (all 0 here); the fleet chains that once per
  // supervisor generation from the FNV offset basis.
  std::uint64_t h = kFnvOffset;
  const std::size_t n = profile.oracle.size();
  for (std::uint64_t g = 0; g < frames; ++g) {
    const Outcome& o = profile.oracle[(offset + g) % n];
    h = fnv_u64(h, g);
    h = fnv_u64(h, o.code);
    if (o.scored) h = fnv_u64(h, o.distance_bits);
  }
  h = fnv_u64(h, 0);
  h = fnv_u64(h, 0);
  h = fnv_u64(h, 0);
  return fnv_u64(kFnvOffset, h);
}

void count_outcomes(const Profile& profile, std::size_t offset,
                    std::uint64_t frames, OutcomeCounts* counts) {
  const std::size_t n = profile.oracle.size();
  for (std::uint64_t g = 0; g < frames; ++g) {
    const Outcome& o = profile.oracle[(offset + g) % n];
    if (!o.scored) {
      ++counts->extract_error;
    } else if (o.code == 32 + static_cast<std::uint64_t>(vprofile::Verdict::kOk)) {
      ++counts->ok;
    } else {
      ++counts->anomaly;
    }
  }
}

}  // namespace e2e
