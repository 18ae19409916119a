// Ablation for the online model update (Algorithm 4 / Section 5.3, E14):
// under slow temperature drift, compare
//   (1) a stale model trained once,
//   (2) the same model kept current with the online updater, and
//   (3) periodic full retraining (the expensive gold standard).
//
// Paper argument to support: the online update tracks drift nearly as
// well as retraining at a fraction of the cost, and the updater's
// retrain bound M flags when updates stop being effective.
#include <cstdio>
#include <vector>

#include "bench_common.hpp"
#include "core/extractor.hpp"
#include "core/online_update.hpp"
#include "core/trainer.hpp"
#include "sim/presets.hpp"

namespace {

constexpr double kBatteryV = 13.60;

struct PhaseStats {
  double mean_excess = 0.0;
  std::uint64_t fps = 0;
  std::uint64_t total = 0;
};

PhaseStats score_phase(const vprofile::Model& model,
                       const std::vector<vprofile::EdgeSet>& sets,
                       double margin) {
  PhaseStats ps;
  double sum = 0.0;
  for (const auto& es : sets) {
    const auto cluster = model.cluster_of(es.sa);
    if (!cluster) continue;
    const double excess = model.distance(*cluster, es.samples) -
                          model.clusters()[*cluster].max_distance;
    sum += excess;
    ++ps.total;
    if (excess > margin) ++ps.fps;
  }
  ps.mean_excess = (ps.total != 0) ? sum / static_cast<double>(ps.total) : 0;
  return ps;
}

}  // namespace

int main() {
  bench::open_report("online_update");
  bench::print_header("Online model update ablation — drifting "
                      "temperature, Vehicle A");

  sim::Experiment exp(sim::vehicle_a(), bench::bench_seed("online_update"));
  sim::ExperimentParams params =
      bench::default_params(vprofile::DistanceMetric::kMahalanobis);
  params.env =
      analog::Environment{units::Celsius{0.0}, units::Volts{kBatteryV}};
  params.train_count = bench::scaled(2500);

  auto trained = exp.train(params);
  if (!trained.ok()) {
    std::printf("training failed: %s\n", trained.error.c_str());
    return 1;
  }
  const auto extraction = trained.model->extraction();
  vprofile::Model stale = *trained.model;
  vprofile::Model adaptive = *trained.model;
  vprofile::OnlineUpdater updater(&adaptive, 1u << 24);

  const double margin = 3.0;
  vprofile::TrainingConfig retrain_cfg;
  retrain_cfg.metric = vprofile::DistanceMetric::kMahalanobis;
  retrain_cfg.extraction = extraction;

  std::printf("\n%-8s | %-22s | %-22s | %-22s\n", "temp", "stale model",
              "online update", "periodic retrain");
  std::printf("%-8s | %10s %11s | %10s %11s | %10s %11s\n", "(C)",
              "mean exc", "FP rate", "mean exc", "FP rate", "mean exc",
              "FP rate");

  for (double temp : {5.0, 10.0, 15.0, 20.0, 25.0, 30.0, 35.0}) {
    // Capture this phase once; all three strategies see the same data.
    std::vector<vprofile::EdgeSet> sets;
    for (const auto& cap : exp.vehicle().capture(
             bench::scaled(2500),
             analog::Environment{units::Celsius{temp},
                                 units::Volts{kBatteryV}})) {
      if (auto es = vprofile::extract_edge_set(cap.codes, extraction)) {
        sets.push_back(std::move(*es));
      }
    }

    const PhaseStats s_stale = score_phase(stale, sets, margin);
    const PhaseStats s_adaptive = score_phase(adaptive, sets, margin);

    // Periodic retrain: model rebuilt from this phase's data alone.
    const auto retrained = vprofile::train_with_database(
        sets, exp.vehicle().database(), retrain_cfg);
    PhaseStats s_retrain;
    if (retrained.ok()) {
      s_retrain = score_phase(*retrained.model, sets, margin);
    }

    std::printf("%-8.1f | %10.2f %10.4f%% | %10.2f %10.4f%% | %10.2f "
                "%10.4f%%\n",
                temp, s_stale.mean_excess,
                100.0 * static_cast<double>(s_stale.fps) /
                        static_cast<double>(
                            std::max<std::uint64_t>(1, s_stale.total)),
                s_adaptive.mean_excess,
                100.0 * static_cast<double>(s_adaptive.fps) /
                    static_cast<double>(
                        std::max<std::uint64_t>(1, s_adaptive.total)),
                s_retrain.mean_excess,
                100.0 * static_cast<double>(s_retrain.fps) /
                    static_cast<double>(
                        std::max<std::uint64_t>(1, s_retrain.total)));

    // Feed the phase into the online updater (trusted data, as §5.3
    // assumes).
    updater.update_all(sets);
  }

  std::printf(
      "\nexpected shape: the stale model's mean excess climbs with "
      "temperature and eventually produces false positives; the online "
      "update keeps the excess near the retrain baseline\n");
  std::printf("clusters flagged for retrain (bound M reached): %zu\n",
              updater.clusters_needing_retrain().size());
  return 0;
}
