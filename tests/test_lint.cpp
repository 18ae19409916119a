// Tests for the vprofile_lint rule engine: every rule must fire on a
// minimal violating fixture and stay silent on the conforming rewrite,
// suppressions must be honored, and the scrubber must keep comments and
// string literals from producing findings.
#include <algorithm>
#include <map>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "lint/lint.hpp"
#include "lint/project.hpp"

namespace {

using vplint::Finding;
using vplint::lint_source;

std::vector<std::string> rules_of(const std::vector<Finding>& findings) {
  std::vector<std::string> rules;
  for (const auto& f : findings) rules.push_back(f.rule);
  return rules;
}

bool has_rule(const std::vector<Finding>& findings, const std::string& rule) {
  return std::any_of(findings.begin(), findings.end(),
                     [&](const Finding& f) { return f.rule == rule; });
}

// ---------------------------------------------------------------------
// determinism
// ---------------------------------------------------------------------

TEST(LintDeterminism, FlagsRandSrandTimeClock) {
  const std::string src = R"cpp(
int f() {
  srand(42);
  int a = rand();
  long t = time(nullptr);
  long c = clock();
  return a + int(t + c);
}
)cpp";
  const auto findings = lint_source("fixture.cpp", src);
  EXPECT_EQ(rules_of(findings),
            (std::vector<std::string>{"determinism", "determinism",
                                      "determinism", "determinism"}));
  EXPECT_EQ(findings[0].line, 3u);
}

TEST(LintDeterminism, FlagsRandomDevice) {
  const auto findings =
      lint_source("fixture.cpp", "std::mt19937 g{std::random_device{}()};\n");
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "determinism");
}

TEST(LintDeterminism, CleanOnSeededRngAndUnrelatedNames) {
  const std::string src = R"cpp(
#include "stats/rng.hpp"
double g(const Frame& frame, units::Seed64 seed) {
  stats::Rng rng(seed);                // seeded stream: fine
  double start_time(double);           // _time suffix is a different token
  return rng.uniform(0.0, 1.0) + frame.time() + clk->clock();
}
)cpp";
  EXPECT_TRUE(lint_source("fixture.cpp", src).empty());
}

TEST(LintDeterminism, AllowlistExemptsSeedHelperFile) {
  const std::string src = "unsigned s = std::random_device{}();\n";
  EXPECT_FALSE(lint_source("src/other/file.hpp", src).empty());
  EXPECT_TRUE(lint_source("src/stats/rng.hpp", src).empty());
}

// ---------------------------------------------------------------------
// raw-new-delete
// ---------------------------------------------------------------------

TEST(LintRawNewDelete, FlagsRawNewAndDelete) {
  const std::string src = R"cpp(
void f() {
  int* p = new int[4];
  delete[] p;
}
)cpp";
  const auto findings = lint_source("fixture.cpp", src);
  EXPECT_EQ(rules_of(findings), (std::vector<std::string>{"raw-new-delete",
                                                          "raw-new-delete"}));
}

TEST(LintRawNewDelete, AllowsDeletedFunctionsAndAllocatorShims) {
  const std::string src = R"cpp(
struct Arena {
  Arena(const Arena&) = delete;
  Arena& operator=(const Arena&) =delete;
  void* operator new(std::size_t n);
  void operator delete(void* p);
};
)cpp";
  EXPECT_TRUE(lint_source("fixture.cpp", src).empty());
}

// ---------------------------------------------------------------------
// unordered-iteration
// ---------------------------------------------------------------------

TEST(LintUnorderedIteration, FlagsRangeForOverDeclaredVariable) {
  const std::string src = R"cpp(
#include <unordered_map>
double score(const std::unordered_map<int, double>& weights) {
  double sum = 0.0;
  for (const auto& [k, w] : weights) sum += w;
  return sum;
}
)cpp";
  const auto findings = lint_source("fixture.cpp", src);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "unordered-iteration");
  EXPECT_EQ(findings[0].line, 5u);
}

TEST(LintUnorderedIteration, FlagsMultiLineDeclarations) {
  const std::string src = R"cpp(
std::unordered_map<std::string,
                   std::vector<double>> table;
void dump() {
  for (auto it = table.begin(); it != table.end(); ++it) emit(*it);
}
)cpp";
  EXPECT_TRUE(has_rule(lint_source("fixture.cpp", src),
                       "unordered-iteration"));
}

TEST(LintUnorderedIteration, CleanOnLookupsAndOrderedMaps) {
  const std::string src = R"cpp(
#include <map>
#include <unordered_map>
std::unordered_map<int, double> cache;
std::map<int, double> ordered;
double f(int k) {
  const auto it = cache.find(k);       // point lookup: fine
  for (const auto& [key, v] : ordered) use(key, v);
  return it == cache.end() ? 0.0 : it->second;
}
)cpp";
  EXPECT_TRUE(lint_source("fixture.cpp", src).empty());
}

// ---------------------------------------------------------------------
// unit-cast
// ---------------------------------------------------------------------

TEST(LintUnitCast, FlagsStaticCastToUnitType) {
  const std::string src =
      "auto i = static_cast<units::SampleIndex>(bit_index);\n";
  const auto findings = lint_source("fixture.cpp", src);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "unit-cast");
}

TEST(LintUnitCast, FlagsRewrappingOneUnitAsAnother) {
  const std::string src =
      "units::SampleIndex pos{units::BitIndex{3}.value()};\n";
  EXPECT_TRUE(has_rule(lint_source("fixture.cpp", src), "unit-cast"));
}

TEST(LintUnitCast, CleanOnEntryExitAndSameUnitWraps) {
  const std::string src = R"cpp(
units::Volts v{2.5};
double raw = v.value();
units::SampleRateHz rate{adc.sample_rate().value() / 2.0};
units::SampleIndex pos = t * rate_of(cfg);
)cpp";
  EXPECT_TRUE(lint_source("fixture.cpp", src).empty());
}

// ---------------------------------------------------------------------
// metric-name
// ---------------------------------------------------------------------

TEST(LintMetricName, FlagsBadCaseAndMissingUnitSuffix) {
  const std::string src = R"cpp(
void wire(obs::MetricsRegistry& reg, obs::MetricsRegistry* ptr) {
  reg.counter("FramesTotal");
  reg.gauge("queue_depth");
  ptr->histogram("detectLatency_ns");
}
)cpp";
  const auto findings = lint_source("fixture.cpp", src);
  ASSERT_EQ(findings.size(), 3u);
  for (const auto& f : findings) EXPECT_EQ(f.rule, "metric-name");
  EXPECT_NE(findings[0].message.find("FramesTotal"), std::string::npos);
  EXPECT_NE(findings[1].message.find("queue_depth"), std::string::npos);
}

TEST(LintMetricName, CleanOnConformingNamesAndNonRegistryCalls) {
  const std::string src = R"cpp(
void wire(obs::MetricsRegistry& reg, obs::MetricsRegistry* ptr) {
  reg.counter("frames_submitted_total");
  reg.gauge("arena_bytes");
  ptr->histogram(
      "detect_latency_ns", {{"sa", "0x12"}});
  // Free functions and types that merely share the factory names.
  int counter(int);
  obs::Counter c;
  int x = counter(3);
}
)cpp";
  EXPECT_TRUE(lint_source("fixture.cpp", src).empty());
}

TEST(LintMetricName, DynamicNamesAreSkipped) {
  // A computed name can't be validated by a token scanner; the rule must
  // skip it rather than flag or crash.
  const std::string src =
      "void f(obs::MetricsRegistry& reg, const std::string& n) {\n"
      "  reg.counter(n);\n"
      "}\n";
  EXPECT_TRUE(lint_source("fixture.cpp", src).empty());
}

TEST(LintMetricName, AllowCommentSuppresses) {
  // Mirrors the one sanctioned exemption in src/pipeline/pipeline.cpp
  // (queue_depth is deliberately unitless).
  const std::string src =
      "// vprofile-lint: allow(metric-name)\n"
      "obs::Gauge* g = reg.gauge(\"queue_depth\");\n"
      "obs::Gauge* h = reg.gauge(\"other_depth\");\n";
  const auto findings = lint_source("fixture.cpp", src);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].line, 3u);
  EXPECT_EQ(findings[0].rule, "metric-name");
}

// ---------------------------------------------------------------------
// seed-literal
// ---------------------------------------------------------------------

TEST(LintSeedLiteral, FlagsLiteralSeedsAtSeededEntryPoints) {
  const std::string src = R"cpp(
void f() {
  units::Seed64 s{1234};
  stats::Rng rng(42);
  sim::ScenarioRunner runner(0xf407e2);
  auto t = units::Seed64{0xBEEF};
}
)cpp";
  const auto findings = lint_source("src/sim/adversary.cpp", src);
  EXPECT_EQ(rules_of(findings),
            (std::vector<std::string>{"seed-literal", "seed-literal",
                                      "seed-literal", "seed-literal"}));
  EXPECT_NE(findings[0].message.find("bench::bench_seed"), std::string::npos);
}

TEST(LintSeedLiteral, CleanOnDerivedAndNamedSeeds) {
  const std::string src = R"cpp(
void f(units::Seed64 seed, std::uint64_t raw) {
  stats::Rng rng(seed);
  sim::ScenarioRunner runner(bench::bench_seed("frontier"));
  units::Seed64 derived = sim::derive_stream_seed(seed, "stream/adversary");
  units::Seed64 wrapped{raw};
  units::Seed64 fallback{h == 0 ? 0x9e3779b97f4a7c15ULL : h};
}
)cpp";
  EXPECT_TRUE(lint_source("src/sim/adversary.cpp", src).empty());
}

TEST(LintSeedLiteral, BenchSeedCatalogIsExempt) {
  const std::string src = "units::Seed64 s{4400};\n";
  EXPECT_TRUE(has_rule(lint_source("src/sim/adversary.cpp", src),
                       "seed-literal"));
  EXPECT_TRUE(lint_source("bench/bench_common.cpp", src).empty());
}

TEST(LintSeedLiteral, AllowCommentSuppresses) {
  const std::string src =
      "// vprofile-lint: allow(seed-literal)\n"
      "units::Seed64 s{99};\n"
      "units::Seed64 t{99};\n";
  const auto findings = lint_source("src/sim/x.cpp", src);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].line, 3u);
  EXPECT_EQ(findings[0].rule, "seed-literal");
}

// ---------------------------------------------------------------------
// simd-boundary
// ---------------------------------------------------------------------

TEST(LintSimdBoundary, FlagsIntrinsicsAndVectorTypesOutsideKernelDir) {
  const std::string src = R"cpp(
void hot_loop(const double* a, const double* b, double* out) {
  __m256d x = _mm256_loadu_pd(a);
  __m256d y = _mm256_loadu_pd(b);
  _mm256_storeu_pd(out, _mm256_add_pd(x, y));
  __m128i small = _mm_setzero_si128();
  (void)small;
}
)cpp";
  const auto findings = lint_source("src/core/fast_path.cpp", src);
  ASSERT_GE(findings.size(), 6u);
  for (const auto& f : findings) EXPECT_EQ(f.rule, "simd-boundary");
  EXPECT_TRUE(std::any_of(findings.begin(), findings.end(),
                          [](const Finding& f) {
                            return f.message.find("__m256d") !=
                                   std::string::npos;
                          }));
  EXPECT_NE(findings[0].message.find("simd_dispatch"), std::string::npos);
}

TEST(LintSimdBoundary, AllowedInsideTheKernelDirectory) {
  const std::string src =
      "__m256d q = _mm256_setzero_pd();\n"
      "_mm256_storeu_pd(out, q);\n";
  EXPECT_TRUE(lint_source("src/linalg/simd_avx2.cpp", src).empty());
  EXPECT_TRUE(lint_source("src/linalg/simd_kernels.hpp", src).empty());
  // Anywhere else the same text is a violation.
  EXPECT_TRUE(has_rule(lint_source("src/linalg/matrix.cpp", src),
                       "simd-boundary"));
}

TEST(LintSimdBoundary, CleanOnLookalikesCommentsAndStrings) {
  const std::string src = R"cpp(
// _mm256_add_pd in a comment is documentation, not a violation.
const char* doc = "_mm256_loadu_pd";
int my_mm256_helper = 0;
double warm_mm = 0.0;
)cpp";
  EXPECT_TRUE(lint_source("src/core/detector.cpp", src).empty());
}

TEST(LintSimdBoundary, AllowCommentSuppresses) {
  const std::string src =
      "// vprofile-lint: allow(simd-boundary)\n"
      "__m256d q = _mm256_setzero_pd();\n"
      "__m256d r = _mm256_setzero_pd();\n";
  const auto findings = lint_source("src/core/fast.cpp", src);
  ASSERT_EQ(findings.size(), 2u);
  EXPECT_EQ(findings[0].line, 3u);
  for (const auto& f : findings) EXPECT_EQ(f.rule, "simd-boundary");
}

// ---------------------------------------------------------------------
// Suppressions and scrubbing
// ---------------------------------------------------------------------

TEST(LintSuppression, SameLineAllowSilencesOneRule) {
  const std::string src =
      "int* p = new int;  // vprofile-lint: allow(raw-new-delete)\n"
      "int* q = new int;\n";
  const auto findings = lint_source("fixture.cpp", src);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].line, 2u);
}

TEST(LintSuppression, PrecedingLineAllowCoversNextLine) {
  const std::string src =
      "// vprofile-lint: allow(raw-new-delete)\n"
      "int* p = new int;\n";
  EXPECT_TRUE(lint_source("fixture.cpp", src).empty());
}

TEST(LintSuppression, AllowOnlySilencesTheNamedRule) {
  const std::string src =
      "// vprofile-lint: allow(determinism)\n"
      "int* p = new int;\n";
  EXPECT_TRUE(has_rule(lint_source("fixture.cpp", src), "raw-new-delete"));
}

TEST(LintScrub, CommentsAndStringsProduceNoFindings) {
  const std::string src = R"cpp(
// a comment mentioning rand() and new and x == 0.0
/* block: time(nullptr) and delete p */
const char* s = "rand() time(0) new delete == 0.0";
const char* r = R"(random_device == 1.5)";
char c = '=';
)cpp";
  EXPECT_TRUE(lint_source("fixture.cpp", src).empty());
}

TEST(LintScrub, DigitSeparatorsAreNotCharLiterals) {
  // A digit separator must not open a character literal and swallow the
  // rest of the file (which would hide the violation on the next line).
  const std::string src =
      "const long n = 1'000'000;\n"
      "int* p = new int;\n";
  EXPECT_TRUE(has_rule(lint_source("fixture.cpp", src), "raw-new-delete"));
}

TEST(LintScrub, FindingsReportOneBasedLines) {
  const auto findings =
      lint_source("fixture.cpp", "\n\n\nint a = rand();\n");
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].line, 4u);
}

// ---------------------------------------------------------------------
// compile_commands.json parsing
// ---------------------------------------------------------------------

TEST(LintCompileCommands, ExtractsSortedUniqueFiles) {
  const std::string json = R"json(
[
  {"directory": "/b", "command": "c++ -c a.cpp", "file": "/repo/src/a.cpp"},
  {"directory": "/b", "command": "c++ -c b.cpp", "file": "/repo/src/b.cpp"},
  {"directory": "/b", "command": "c++ -c a.cpp", "file": "/repo/src/a.cpp"}
]
)json";
  const auto files = vplint::files_from_compile_commands(json);
  EXPECT_EQ(files, (std::vector<std::string>{"/repo/src/a.cpp",
                                             "/repo/src/b.cpp"}));
}

// ---------------------------------------------------------------------
// project analyzer: architecture layering
// ---------------------------------------------------------------------

using vplint::ProjectFinding;
using vplint::ProjectOptions;
using vplint::run_project;

constexpr const char* kTwoLayers =
    "layer base: src/core\nlayer services: src/pipeline\n";

std::vector<ProjectFinding> with_rule(
    const std::vector<ProjectFinding>& findings, const std::string& rule) {
  std::vector<ProjectFinding> out;
  for (const auto& f : findings) {
    if (f.rule == rule) out.push_back(f);
  }
  return out;
}

TEST(LintLayering, FlagsUpwardIncludeOnly) {
  const std::map<std::string, std::string> sources = {
      {"src/core/low.hpp", "int low();\n"},
      {"src/core/bad.cpp", "#include \"pipeline/high.hpp\"\n"},
      {"src/pipeline/high.hpp", "#include \"core/low.hpp\"\nint high();\n"},
  };
  ProjectOptions opts;
  opts.layer_spec = kTwoLayers;
  std::string error;
  const auto findings = run_project(sources, opts, &error);
  EXPECT_TRUE(error.empty());
  const auto layering = with_rule(findings, "architecture-layering");
  ASSERT_EQ(layering.size(), 1u);  // downward services->base stays legal
  EXPECT_EQ(layering[0].file, "src/core/bad.cpp");
  EXPECT_EQ(layering[0].line, 1u);
  EXPECT_EQ(layering[0].key, "layering:src/core/bad.cpp->src/pipeline");
}

TEST(LintLayering, SystemIncludesAndUnlayeredFilesAreIgnored) {
  const std::map<std::string, std::string> sources = {
      {"src/core/a.cpp", "#include <vector>\n#include \"misc/b.hpp\"\n"},
      {"misc/b.hpp", "int b();\n"},
  };
  ProjectOptions opts;
  opts.layer_spec = kTwoLayers;
  std::string error;
  EXPECT_TRUE(
      with_rule(run_project(sources, opts, &error), "architecture-layering")
          .empty());
}

TEST(LintLayering, MalformedSpecReportsErrorAndNoFindings) {
  const std::map<std::string, std::string> sources = {
      {"src/core/a.cpp", "int a();\n"}};
  ProjectOptions opts;
  opts.layer_spec = "this is not a layer line\n";
  std::string error;
  EXPECT_TRUE(run_project(sources, opts, &error).empty());
  EXPECT_FALSE(error.empty());
}

// ---------------------------------------------------------------------
// project analyzer: hot-path purity
// ---------------------------------------------------------------------

TEST(LintPurity, FlagsForbiddenTokenReachableFromHotRoot) {
  const std::map<std::string, std::string> sources = {
      {"src/core/hot.cpp",
       "// vprofile-lint: hot\n"
       "void kernel() { helper(); }\n"
       "void helper() { std::mutex m; }\n"},
  };
  ProjectOptions opts;
  opts.layer_spec = kTwoLayers;
  std::string error;
  const auto purity =
      with_rule(run_project(sources, opts, &error), "hot-path-purity");
  ASSERT_EQ(purity.size(), 1u);
  EXPECT_EQ(purity[0].line, 3u);
  EXPECT_EQ(purity[0].key, "purity:src/core/hot.cpp:helper:mutex");
  EXPECT_NE(purity[0].message.find("hot entry `kernel`"), std::string::npos);
}

TEST(LintPurity, ColdBoundaryStopsTraversal) {
  const std::map<std::string, std::string> sources = {
      {"src/core/hot.cpp",
       "// vprofile-lint: hot\n"
       "void kernel() { handoff(); }\n"
       "// vprofile-lint: cold\n"
       "void handoff() { std::mutex m; locked(); }\n"
       "void locked() { std::lock_guard<std::mutex> g(mu); }\n"},
  };
  ProjectOptions opts;
  opts.layer_spec = kTwoLayers;
  std::string error;
  EXPECT_TRUE(
      with_rule(run_project(sources, opts, &error), "hot-path-purity")
          .empty());
}

TEST(LintPurity, UnreachableViolationsAndMemberShadowsStayClean) {
  const std::map<std::string, std::string> sources = {
      {"src/core/hot.cpp",
       "// vprofile-lint: hot\n"
       "void kernel(const Trace& t) { double x = t.time(); }\n"
       "void never_called() { std::mutex m; }\n"},
  };
  ProjectOptions opts;
  opts.layer_spec = kTwoLayers;
  std::string error;
  EXPECT_TRUE(
      with_rule(run_project(sources, opts, &error), "hot-path-purity")
          .empty());
}

TEST(LintPurity, AllowSuppressesAndIsNotReportedStale) {
  const std::map<std::string, std::string> sources = {
      {"src/core/hot.cpp",
       "// vprofile-lint: hot\n"
       "void kernel() {\n"
       "  // vprofile-lint: allow(hot-path-purity)\n"
       "  const char* v = getenv(\"KNOB\");\n"
       "  (void)v;\n"
       "}\n"},
  };
  ProjectOptions opts;
  opts.layer_spec = kTwoLayers;
  std::string error;
  const auto findings = run_project(sources, opts, &error);
  EXPECT_TRUE(with_rule(findings, "hot-path-purity").empty());
  EXPECT_TRUE(with_rule(findings, "stale-suppression").empty());
}

// ---------------------------------------------------------------------
// project analyzer: cross-file consistency
// ---------------------------------------------------------------------

TEST(LintConsistency, MetricContractChecksBothDirections) {
  const std::map<std::string, std::string> sources = {
      {"src/obs/use.cpp",
       "void wire(Reg& reg) { auto* c = reg.counter(\"foo_total\"); }\n"},
  };
  ProjectOptions opts;
  opts.layer_spec = kTwoLayers;
  opts.metrics_spec = "# contract\nbar_total\n";
  std::string error;
  const auto metric =
      with_rule(run_project(sources, opts, &error), "metric-export");
  ASSERT_EQ(metric.size(), 2u);
  EXPECT_EQ(metric[0].key, "consistency:metric-unexported:foo_total");
  EXPECT_EQ(metric[0].file, "src/obs/use.cpp");
  EXPECT_EQ(metric[1].key, "consistency:metric-orphan:bar_total");
  EXPECT_EQ(metric[1].file, "tools/lint/metrics.spec");
  EXPECT_EQ(metric[1].line, 2u);
}

TEST(LintConsistency, SeedCatalogChecksBothDirections) {
  const std::map<std::string, std::string> sources = {
      {"bench/bench_common.cpp",
       "static constexpr std::array<std::pair<std::string_view, int>, 2>\n"
       "    kSeeds{{\n"
       "        {\"used\", 1},\n"
       "        {\"dead\", 2},\n"
       "    }};\n"},
      {"bench/bench_use.cpp",
       "auto a = bench_seed(\"used\");\n"
       "auto b = bench_seed(\"ghost\");\n"},
  };
  ProjectOptions opts;
  opts.layer_spec = kTwoLayers;
  std::string error;
  const auto seeds =
      with_rule(run_project(sources, opts, &error), "seed-catalog");
  ASSERT_EQ(seeds.size(), 2u);
  EXPECT_EQ(seeds[0].key, "consistency:seed-unused:dead");
  EXPECT_EQ(seeds[0].file, "bench/bench_common.cpp");
  EXPECT_EQ(seeds[0].line, 4u);
  EXPECT_EQ(seeds[1].key, "consistency:seed-undefined:ghost");
  EXPECT_EQ(seeds[1].file, "bench/bench_use.cpp");
  EXPECT_EQ(seeds[1].line, 2u);
}

TEST(LintConsistency, StaleSuppressionIsFlaggedLiveOneIsNot) {
  const std::map<std::string, std::string> sources = {
      {"src/core/mixed.cpp",
       "// vprofile-lint: allow(raw-new-delete)\n"
       "int* p = new int;\n"
       "// vprofile-lint: allow(determinism)\n"
       "int q = 1;\n"},
  };
  ProjectOptions opts;
  opts.layer_spec = kTwoLayers;
  std::string error;
  const auto findings = run_project(sources, opts, &error);
  const auto stale = with_rule(findings, "stale-suppression");
  ASSERT_EQ(stale.size(), 1u);
  EXPECT_EQ(stale[0].line, 3u);
  EXPECT_EQ(stale[0].key,
            "consistency:stale-allow:src/core/mixed.cpp:determinism");
  // The live suppression masked its finding and is not re-reported.
  EXPECT_TRUE(with_rule(findings, "raw-new-delete").empty());
}

// ---------------------------------------------------------------------
// project analyzer: ratchet + report
// ---------------------------------------------------------------------

TEST(LintRatchet, SplitsFreshAndStaleKeys) {
  std::vector<ProjectFinding> findings(2);
  findings[0].key = "layering:a->b";
  findings[1].key = "purity:f:g:new";
  const std::set<std::string> baseline = {"purity:f:g:new", "paid:off"};
  const auto delta = vplint::ratchet(findings, baseline);
  EXPECT_EQ(delta.fresh, std::vector<std::string>{"layering:a->b"});
  EXPECT_EQ(delta.stale, std::vector<std::string>{"paid:off"});
  EXPECT_FALSE(delta.empty());
  EXPECT_TRUE(vplint::ratchet(findings, vplint::parse_baseline(
                                            vplint::baseline_json(findings)))
                  .empty());
}

TEST(LintReport, ByteIdenticalAcrossRunsAndVersioned) {
  const std::map<std::string, std::string> sources = {
      {"src/core/bad.cpp", "#include \"pipeline/high.hpp\"\n"},
      {"src/pipeline/high.hpp", "int high();\n"},
  };
  ProjectOptions opts;
  opts.layer_spec = kTwoLayers;
  std::string error;
  const auto run1 = run_project(sources, opts, &error);
  const auto run2 = run_project(sources, opts, &error);
  const std::set<std::string> baseline;
  const std::string report1 = vplint::report_json(run1, baseline);
  const std::string report2 = vplint::report_json(run2, baseline);
  EXPECT_EQ(report1, report2);
  EXPECT_NE(report1.find("\"schema\": \"vprofile-lint-v1\""),
            std::string::npos);
  EXPECT_NE(report1.find("layering:src/core/bad.cpp->src/pipeline"),
            std::string::npos);
  // Baselining the key flips it from fresh to baselined byte-stably.
  const std::set<std::string> accepted = {
      "layering:src/core/bad.cpp->src/pipeline"};
  const std::string report3 = vplint::report_json(run1, accepted);
  EXPECT_NE(report3.find("\"fresh\": 0"), std::string::npos);
  EXPECT_NE(report3.find("\"baselined\": true"), std::string::npos);
}

}  // namespace
