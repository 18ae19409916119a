// vprofile_replay — re-runs detection from a flight-recorder incident
// bundle and verifies the recorded verdicts bit-identically.
//
// Usage:
//   vprofile_replay BUNDLE.json [--verbose]
//
// The bundle is self-describing: the manifest pins the run (vehicle,
// seed, training count), the context carries the exact
// DetectionConfig, and every evidence record keeps its extracted feature
// vector as exact doubles (%.17g round-trips bit-for-bit through
// strtod).  Replay retrains the same model from the same seed through
// sim::train_on_clean_traffic, the recipe vprofile_monitor uses, rebuilds
// the detection config, re-scores every generation-0 record that
// retained its features, and compares the verdict code, the cluster
// attribution, and the min_distance / confidence doubles *by bit
// pattern* — an incident bundle is a reproducible test case, not a log.
//
// Records from promoted model generations (> 0) are skipped: online
// retraining folds live traffic the bundle does not carry, so only the
// trained-from-seed generation is reproducible offline.  For the same
// reason a bundle from a monitor run that resumed from a checkpoint
// (manifest config "resumed_from") is refused with exit 2.
//
// Exit codes: 0 = every verifiable record reproduced bit-identically;
// 1 = at least one mismatch; 2 = unusable bundle / usage error.
#include <bit>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "core/detector.hpp"
#include "core/edge_set.hpp"
#include "core/trainer.hpp"
#include "io/json.hpp"
#include "obs/flight_recorder.hpp"
#include "sim/presets.hpp"
#include "sim/vehicle.hpp"

namespace {

void usage() {
  std::fprintf(stderr, "usage: vprofile_replay BUNDLE.json [--verbose]\n");
}

/// Required string lookup; exits 2 with a diagnostic when absent.
std::string need_string(const io::json::Value* obj, const char* key,
                        const char* where) {
  const io::json::Value* v = io::json::get(obj, key);
  if (v == nullptr || !v->is_string()) {
    std::fprintf(stderr, "bundle: missing %s.%s\n", where, key);
    std::exit(2);
  }
  return v->string;
}

/// Manifest config values are strings ("train": "1500"); parse the digits.
std::uint64_t need_config_u64(const io::json::Value* obj, const char* key,
                              const char* where) {
  const std::string s = need_string(obj, key, where);
  return std::strtoull(s.c_str(), nullptr, 10);
}

std::uint64_t need_u64(const io::json::Value* obj, const char* key,
                       const char* where) {
  const io::json::Value* v = io::json::get(obj, key);
  double num = 0.0;
  if (v == nullptr || !io::json::flexible_number(*v, &num) || num < 0) {
    std::fprintf(stderr, "bundle: missing %s.%s\n", where, key);
    std::exit(2);
  }
  return static_cast<std::uint64_t>(num);
}

double need_double(const io::json::Value* obj, const char* key,
                   const char* where) {
  const io::json::Value* v = io::json::get(obj, key);
  double num = 0.0;
  if (v == nullptr || !io::json::flexible_number(*v, &num)) {
    std::fprintf(stderr, "bundle: missing %s.%s\n", where, key);
    std::exit(2);
  }
  return num;
}

/// One evidence record's recorded outcome, as far as replay verifies it.
struct Recorded {
  std::uint64_t seq = 0;
  std::uint8_t sa = 0;
  unsigned verdict_code = 0;
  std::int64_t expected_cluster = -1;
  std::int64_t predicted_cluster = -1;
  double min_distance = 0.0;
  double confidence = 0.0;
  std::vector<double> features;
};

bool bits_equal(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

}  // namespace

int main(int argc, char** argv) {
  std::string bundle_path;
  bool verbose = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--verbose") {
      verbose = true;
    } else if (bundle_path.empty()) {
      bundle_path = arg;
    } else {
      usage();
      return 2;
    }
  }
  if (bundle_path.empty()) {
    usage();
    return 2;
  }

  std::ifstream in(bundle_path, std::ios::binary);
  if (!in) {
    std::fprintf(stderr, "cannot open %s\n", bundle_path.c_str());
    return 2;
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  const std::string text = buf.str();

  io::json::Value root;
  std::string parse_error;
  if (!io::json::parse(text, &root, &parse_error)) {
    std::fprintf(stderr, "%s: %s\n", bundle_path.c_str(),
                 parse_error.c_str());
    return 2;
  }
  const io::json::Value* schema = io::json::get(&root, "schema");
  if (schema == nullptr || !schema->is_string() ||
      schema->string != "vprofile-incident-v1") {
    std::fprintf(stderr, "%s: not a vprofile-incident-v1 bundle\n",
                 bundle_path.c_str());
    return 2;
  }

  // The manifest pins the reproducible half of the run; the context pins
  // the detection config the verdicts were produced under.
  const io::json::Value* manifest = io::json::get(&root, "manifest");
  const io::json::Value* config = io::json::get(manifest, "config");
  const io::json::Value* seeds = io::json::get(manifest, "seeds");
  const std::string vehicle_name =
      need_string(config, "vehicle", "manifest.config");
  const std::size_t train_count = static_cast<std::size_t>(
      need_config_u64(config, "train", "manifest.config"));
  const std::uint64_t seed = need_u64(seeds, "seed", "manifest.seeds");
  if ((vehicle_name != "a" && vehicle_name != "b") || train_count == 0) {
    std::fprintf(stderr, "bundle: unreplayable manifest config\n");
    return 2;
  }
  if (io::json::get(config, "resumed_from") != nullptr) {
    std::fprintf(stderr,
                 "bundle: the run resumed from a checkpoint, so its model "
                 "does not retrain from the seed\n");
    return 2;
  }

  const io::json::Value* detection =
      io::json::get(io::json::get(&root, "context"), "detection");
  if (detection == nullptr) {
    std::fprintf(stderr, "bundle: missing context.detection\n");
    return 2;
  }
  vprofile::DetectionConfig dc;
  dc.margin = need_double(detection, "margin", "context.detection");
  dc.saturation_code =
      need_double(detection, "saturation_code", "context.detection");
  dc.dead_code = need_double(detection, "dead_code", "context.detection");
  dc.degraded_fraction =
      need_double(detection, "degraded_fraction", "context.detection");
  dc.flat_run_min = static_cast<std::size_t>(
      need_u64(detection, "flat_run_min", "context.detection"));

  // Rebuild the generation-0 model: same vehicle preset, same seed, same
  // training recipe.
  std::printf("retraining: vehicle %s, seed %llu, %zu messages...\n",
              vehicle_name.c_str(), static_cast<unsigned long long>(seed),
              train_count);
  sim::Vehicle vehicle(
      vehicle_name == "a" ? sim::vehicle_a() : sim::vehicle_b(), seed);
  const vprofile::TrainOutcome trained = sim::train_on_clean_traffic(
      vehicle, train_count, analog::Environment::reference(), {});
  if (!trained.ok()) {
    std::fprintf(stderr, "retraining failed: %s\n", trained.error.c_str());
    return 2;
  }
  const vprofile::Model& model = *trained.model;

  // Collect every verifiable record: scored (verdict present), features
  // retained, produced by the generation-0 model.
  std::vector<Recorded> records;
  std::size_t skipped = 0;
  const io::json::Value* evidence = io::json::get(&root, "evidence");
  for (const char* part : {"pre", "post"}) {
    const io::json::Value* window = io::json::get(evidence, part);
    if (window == nullptr || !window->is_array()) continue;
    for (const io::json::Value& rec : window->array) {
      const io::json::Value* verdict_code = io::json::get(&rec, "verdict_code");
      const io::json::Value* generation =
          io::json::get(&rec, "model_generation");
      const io::json::Value* features = io::json::get(&rec, "features");
      // A record at the recorder's feature cap may have been truncated —
      // skipping it is honest; "verifying" a prefix is not.
      if (verdict_code == nullptr || !verdict_code->is_number() ||
          features == nullptr || !features->is_array() ||
          features->array.empty() ||
          features->array.size() >= obs::kMaxEvidenceDim ||
          generation == nullptr || !generation->is_number() ||
          static_cast<std::int64_t>(generation->number) != 0) {
        ++skipped;
        continue;
      }
      Recorded r;
      r.seq = need_u64(&rec, "seq", "evidence record");
      r.sa = static_cast<std::uint8_t>(need_u64(&rec, "sa", "record"));
      r.verdict_code = static_cast<unsigned>(verdict_code->number);
      r.expected_cluster = static_cast<std::int64_t>(
          need_double(&rec, "expected_cluster", "record"));
      r.predicted_cluster = static_cast<std::int64_t>(
          need_double(&rec, "predicted_cluster", "record"));
      r.min_distance = need_double(&rec, "min_distance", "record");
      r.confidence = need_double(&rec, "confidence", "record");
      r.features.reserve(features->array.size());
      for (const io::json::Value& f : features->array) {
        double num = 0.0;
        if (!io::json::flexible_number(f, &num)) {
          std::fprintf(stderr, "record %llu: bad feature value\n",
                       static_cast<unsigned long long>(r.seq));
          return 2;
        }
        r.features.push_back(num);
      }
      records.push_back(std::move(r));
    }
  }
  if (records.empty()) {
    std::printf("no verifiable generation-0 records in %s (%zu skipped)\n",
                bundle_path.c_str(), skipped);
    return 0;
  }

  std::size_t mismatches = 0;
  for (const Recorded& r : records) {
    vprofile::EdgeSet es;
    es.sa = r.sa;
    es.samples = r.features;
    const vprofile::Detection det = vprofile::detect(model, es, dc);
    const std::int64_t expected =
        det.expected_cluster
            ? static_cast<std::int64_t>(*det.expected_cluster)
            : -1;
    const std::int64_t predicted =
        det.predicted_cluster
            ? static_cast<std::int64_t>(*det.predicted_cluster)
            : -1;
    const bool ok = static_cast<unsigned>(det.verdict) == r.verdict_code &&
                    expected == r.expected_cluster &&
                    predicted == r.predicted_cluster &&
                    bits_equal(det.min_distance, r.min_distance) &&
                    bits_equal(det.confidence, r.confidence);
    if (!ok) {
      ++mismatches;
      std::fprintf(
          stderr,
          "MISMATCH seq=%llu: recorded verdict=%u dist=%.17g conf=%.17g "
          "exp=%lld pred=%lld; replayed verdict=%u dist=%.17g conf=%.17g "
          "exp=%lld pred=%lld\n",
          static_cast<unsigned long long>(r.seq), r.verdict_code,
          r.min_distance, r.confidence, static_cast<long long>(r.expected_cluster),
          static_cast<long long>(r.predicted_cluster),
          static_cast<unsigned>(det.verdict), det.min_distance,
          det.confidence, static_cast<long long>(expected),
          static_cast<long long>(predicted));
    } else if (verbose) {
      std::printf("ok seq=%llu verdict=%u dist=%.17g\n",
                  static_cast<unsigned long long>(r.seq), r.verdict_code,
                  r.min_distance);
    }
  }

  std::printf("%s: %zu/%zu records reproduced bit-identically (%zu skipped)\n",
              bundle_path.c_str(), records.size() - mismatches,
              records.size(), skipped);
  return mismatches != 0 ? 1 : 0;
}
