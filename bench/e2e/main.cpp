// vp_e2e — the end-to-end verdict benchmark (see README.md here).
//
//   vp_e2e --workload wire_uplink|fleet_fanout|backlog_replay --seed N
//          [--seconds S] [--trace 0|1] [--out-dir DIR] [--perturb-oracle]
//
// Pins itself to one CPU, synthesizes the traffic from the
// seed, checks every verdict against the paper oracle and prints report
// lines, then one JSON result line last.  Exit codes: 0 all verdicts
// match, 3 the correctness gate tripped (the result line says
// "correct": false), 2 usage, 1 unknown workload or set-up failure.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "harness.hpp"
#include "workloads.hpp"

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: vp_e2e --workload wire_uplink|fleet_fanout|backlog_replay"
               " --seed N [--seconds S] [--trace 0|1] [--out-dir DIR]"
               " [--perturb-oracle]\n");
  return 2;
}

bool parse_u64(const char* text, std::uint64_t* out) {
  char* end = nullptr;
  const unsigned long long v = std::strtoull(text, &end, 10);
  if (end == text || *end != '\0') return false;
  *out = v;
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  e2e::Options o;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const char* value = i + 1 < argc ? argv[i + 1] : nullptr;
    std::uint64_t n = 0;
    if (arg == "--perturb-oracle") {
      o.perturb_oracle = true;
      continue;
    }
    if (value == nullptr) return usage();
    ++i;
    if (arg == "--workload") {
      o.workload = value;
    } else if (arg == "--seed" && parse_u64(value, &o.seed)) {
      have_seed = true;
    } else if (arg == "--seconds" && parse_u64(value, &n) && n > 0) {
      o.seconds = static_cast<double>(n);
    } else if (arg == "--trace" && parse_u64(value, &n) && n <= 1) {
      o.trace = n == 1;
    } else if (arg == "--out-dir") {
      o.out_dir = value;
    } else {
      return usage();
    }
  }
  if (!have_seed) return usage();

  // In lockstep only one thread is runnable at a time, and the backlog
  // replay's one-batch window makes its generator and worker take turns;
  // on a shared host a second CPU only adds idle-vCPU wake-ups, whose
  // latency is the largest noise source (see README.md).
  e2e::CpuSet cpus;
  std::string error;
  if (!e2e::pin_to_last_cpu(&cpus, &error)) {
    std::fprintf(stderr, "vp_e2e: %s\n", error.c_str());
    return 1;
  }
  e2e::RunReport report;
  try {
    report = e2e::run_workload(o, cpus);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "vp_e2e: %s\n", e.what());
    return 1;
  }
  for (const std::string& line : report.notes) std::printf("# %s\n", line.c_str());
  std::printf("%s\n", e2e::result_json(report.correct, report.attempted,
                                       report.failed, report.metrics)
                          .c_str());
  std::fflush(stdout);
  return report.correct ? 0 : 3;
}
