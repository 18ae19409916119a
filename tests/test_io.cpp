#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <iterator>
#include <limits>
#include <sstream>
#include <vector>

#include <gtest/gtest.h>

#include "core/trainer.hpp"
#include "io/atomic_file.hpp"
#include "io/checksum.hpp"
#include "io/csv.hpp"
#include "io/json.hpp"
#include "io/model_store.hpp"
#include "io/trace_store.hpp"
#include "linalg/simd_dispatch.hpp"
#include "stats/rng.hpp"
#include "oracles.hpp"

namespace {

TEST(Csv, PlainFieldsUnquoted) {
  std::ostringstream os;
  io::CsvWriter w(os);
  w.write_row(std::vector<std::string>{"a", "b", "c"});
  EXPECT_EQ(os.str(), "a,b,c\n");
}

TEST(Csv, EscapesSpecialCharacters) {
  EXPECT_EQ(io::CsvWriter::escape("plain"), "plain");
  EXPECT_EQ(io::CsvWriter::escape("a,b"), "\"a,b\"");
  EXPECT_EQ(io::CsvWriter::escape("say \"hi\""), "\"say \"\"hi\"\"\"");
  EXPECT_EQ(io::CsvWriter::escape("line\nbreak"), "\"line\nbreak\"");
}

TEST(Csv, NumericRowKeepsPrecision) {
  std::ostringstream os;
  io::CsvWriter w(os);
  w.write_row(std::vector<double>{1.0, 0.1234567890123456});
  EXPECT_NE(os.str().find("0.123456789012345"), std::string::npos);
}

vprofile::Model make_model(vprofile::DistanceMetric metric) {
  vprofile::ExtractionConfig ex;
  ex.prefix_len = 1;
  ex.suffix_len = 2;
  stats::Rng rng(1);
  std::vector<vprofile::EdgeSet> sets;
  for (auto [sa, level] :
       {std::pair<std::uint8_t, double>{1, 100.0}, {7, 200.0}}) {
    for (int i = 0; i < 60; ++i) {
      vprofile::EdgeSet es;
      es.sa = sa;
      es.samples.resize(ex.dimension());
      for (auto& v : es.samples) v = level + rng.gaussian(0.0, 1.0);
      sets.push_back(std::move(es));
    }
  }
  vprofile::TrainingConfig cfg;
  cfg.metric = metric;
  cfg.extraction = ex;
  auto outcome = vprofile::train_with_database(
      sets, {{1, "ECU Alpha"}, {7, "ECU Beta"}}, cfg);
  EXPECT_TRUE(outcome.ok()) << outcome.error;
  return std::move(*outcome.model);
}

TEST(ModelStore, MahalanobisRoundTrip) {
  const auto model = make_model(vprofile::DistanceMetric::kMahalanobis);
  std::stringstream ss;
  ASSERT_TRUE(io::save_model(model, ss));
  std::string error;
  const auto loaded = io::load_model(ss, &error);
  ASSERT_TRUE(loaded.has_value()) << error;

  EXPECT_EQ(loaded->metric(), model.metric());
  EXPECT_EQ(loaded->dimension(), model.dimension());
  ASSERT_EQ(loaded->clusters().size(), model.clusters().size());
  for (std::size_t c = 0; c < model.clusters().size(); ++c) {
    const auto& a = model.clusters()[c];
    const auto& b = loaded->clusters()[c];
    EXPECT_EQ(a.name, b.name);
    EXPECT_EQ(a.sas, b.sas);
    EXPECT_EQ(a.edge_set_count, b.edge_set_count);
    EXPECT_DOUBLE_EQ(a.max_distance, b.max_distance);
    for (std::size_t i = 0; i < a.mean.size(); ++i) {
      EXPECT_DOUBLE_EQ(a.mean[i], b.mean[i]);
    }
    EXPECT_LT(oracle::max_abs_diff(a.covariance, b.covariance), 1e-15);
    EXPECT_LT(oracle::max_abs_diff(a.inv_covariance, b.inv_covariance),
              1e-15);
  }
  // The reloaded model computes identical distances.
  linalg::Vector probe(model.dimension(), 150.0);
  EXPECT_DOUBLE_EQ(model.distance(0, probe), loaded->distance(0, probe));
}

TEST(ModelStore, EuclideanRoundTrip) {
  const auto model = make_model(vprofile::DistanceMetric::kEuclidean);
  std::stringstream ss;
  ASSERT_TRUE(io::save_model(model, ss));
  const auto loaded = io::load_model(ss);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->metric(), vprofile::DistanceMetric::kEuclidean);
  EXPECT_TRUE(loaded->clusters().front().covariance.empty());
}

TEST(ModelStore, ExtractionConfigRoundTrips) {
  const auto model = make_model(vprofile::DistanceMetric::kMahalanobis);
  std::stringstream ss;
  ASSERT_TRUE(io::save_model(model, ss));
  const auto loaded = io::load_model(ss);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->extraction().bit_width_samples,
            model.extraction().bit_width_samples);
  EXPECT_DOUBLE_EQ(loaded->extraction().bit_threshold,
                   model.extraction().bit_threshold);
  EXPECT_EQ(loaded->extraction().prefix_len, model.extraction().prefix_len);
  EXPECT_EQ(loaded->extraction().suffix_len, model.extraction().suffix_len);
}

TEST(ModelStore, RejectsGarbage) {
  std::stringstream ss("not a model at all");
  std::string error;
  EXPECT_FALSE(io::load_model(ss, &error).has_value());
  EXPECT_FALSE(error.empty());
}

TEST(ModelStore, RejectsWrongVersion) {
  std::stringstream ss("vprofile-model 999\n");
  std::string error;
  EXPECT_FALSE(io::load_model(ss, &error).has_value());
  EXPECT_NE(error.find("version"), std::string::npos);
}

TEST(ModelStore, RejectsTruncatedFile) {
  const auto model = make_model(vprofile::DistanceMetric::kMahalanobis);
  std::stringstream ss;
  ASSERT_TRUE(io::save_model(model, ss));
  const std::string full = ss.str();
  std::stringstream truncated(full.substr(0, full.size() / 2));
  std::string error;
  EXPECT_FALSE(io::load_model(truncated, &error).has_value());
  EXPECT_FALSE(error.empty());
}

TEST(ModelStore, FileHelpersWork) {
  const auto model = make_model(vprofile::DistanceMetric::kMahalanobis);
  const std::string path = ::testing::TempDir() + "/model.vpm";
  ASSERT_TRUE(io::save_model_file(model, path));
  std::string error;
  EXPECT_TRUE(io::load_model_file(path, &error).has_value()) << error;
  EXPECT_FALSE(io::load_model_file("/nonexistent/x.vpm").has_value());
}

TEST(TraceStore, RoundTrip) {
  io::TraceSet set;
  set.sample_rate_hz = 20e6;
  set.resolution_bits = 16;
  set.traces = {{1.0, 2.0, 3.0}, {}, {42.0}};
  std::stringstream ss;
  ASSERT_TRUE(io::save_traces(set, ss));
  std::string error;
  const auto loaded = io::load_traces(ss, &error);
  ASSERT_TRUE(loaded.has_value()) << error;
  EXPECT_DOUBLE_EQ(loaded->sample_rate_hz, 20e6);
  EXPECT_EQ(loaded->resolution_bits, 16);
  ASSERT_EQ(loaded->traces.size(), 3u);
  EXPECT_EQ(loaded->traces[0], set.traces[0]);
  EXPECT_TRUE(loaded->traces[1].empty());
  EXPECT_EQ(loaded->traces[2], set.traces[2]);
}

TEST(ModelStore, RejectsNonFiniteClusterStatistics) {
  // A model whose statistics were NaN-poisoned upstream: saving succeeds
  // (text "nan"/"inf" tokens), but loading must refuse — detection with
  // such a model would emit NaN distances for every frame.
  for (const bool poison_mean : {true, false}) {
    auto model = make_model(vprofile::DistanceMetric::kMahalanobis);
    auto clusters = model.clusters();
    if (poison_mean) {
      clusters[0].mean[0] = std::numeric_limits<double>::quiet_NaN();
    } else {
      clusters[0].inv_covariance.data()[0] =
          std::numeric_limits<double>::infinity();
    }
    const vprofile::Model poisoned(model.metric(), model.extraction(),
                                   std::move(clusters));
    std::stringstream ss;
    ASSERT_TRUE(io::save_model(poisoned, ss));
    std::string error;
    EXPECT_FALSE(io::load_model(ss, &error).has_value());
    EXPECT_FALSE(error.empty());
  }
}

TEST(ModelStore, RejectsNonFiniteMaxDistance) {
  auto model = make_model(vprofile::DistanceMetric::kMahalanobis);
  auto clusters = model.clusters();
  clusters[0].max_distance = std::numeric_limits<double>::infinity();
  const vprofile::Model poisoned(model.metric(), model.extraction(),
                                 std::move(clusters));
  std::stringstream ss;
  ASSERT_TRUE(io::save_model(poisoned, ss));
  std::string error;
  EXPECT_FALSE(io::load_model(ss, &error).has_value());
  EXPECT_FALSE(error.empty());
}

TEST(ModelStore, TruncationAtEveryByteFailsCleanly) {
  const auto model = make_model(vprofile::DistanceMetric::kMahalanobis);
  std::stringstream ss;
  ASSERT_TRUE(io::save_model(model, ss));
  const std::string full = ss.str();
  // Sweep truncation points through the whole file; every prefix must
  // either load (only the complete file) or fail with a set error.
  for (std::size_t len = 0; len < full.size();
       len += std::max<std::size_t>(1, full.size() / 97)) {
    std::stringstream truncated(full.substr(0, len));
    std::string error = "unset";
    const auto loaded = io::load_model(truncated, &error);
    EXPECT_FALSE(loaded.has_value()) << "prefix length " << len;
    EXPECT_NE(error, "unset") << "prefix length " << len;
    EXPECT_FALSE(error.empty()) << "prefix length " << len;
  }
}

TEST(Checksum, MatchesTheStandardCheckValue) {
  // The canonical CRC-32 test vector: crc32("123456789") == 0xCBF43926.
  EXPECT_EQ(io::crc32("123456789"), 0xCBF43926u);
  EXPECT_EQ(io::crc32("", 0), 0u);
  EXPECT_EQ(io::crc32_hex(0xCBF43926u), "cbf43926");
  std::uint32_t parsed = 0;
  EXPECT_TRUE(io::parse_crc32_hex("cbf43926", &parsed));
  EXPECT_EQ(parsed, 0xCBF43926u);
  EXPECT_TRUE(io::parse_crc32_hex("DEADBEEF", &parsed));
  EXPECT_EQ(parsed, 0xDEADBEEFu);
  EXPECT_FALSE(io::parse_crc32_hex("deadbee", &parsed));
  EXPECT_FALSE(io::parse_crc32_hex("deadbeefs", &parsed));
  EXPECT_FALSE(io::parse_crc32_hex("deadbeeg", &parsed));
}

// Bit-at-a-time CRC-32 straight from the polynomial: the oracle the
// table-driven implementation must reproduce.
std::uint32_t bitwise_crc32(const unsigned char* data, std::size_t len) {
  std::uint32_t crc = 0xFFFFFFFFu;
  for (std::size_t i = 0; i < len; ++i) {
    crc ^= data[i];
    for (int k = 0; k < 8; ++k) {
      crc = (crc & 1u) != 0 ? 0xEDB88320u ^ (crc >> 1) : crc >> 1;
    }
  }
  return crc ^ 0xFFFFFFFFu;
}

TEST(Checksum, MatchesBitwiseReferenceAtEveryLengthAndOffset) {
  stats::Rng rng(17);
  const std::size_t big = 80 * 1024 + 5;  // over 64 KiB, odd tail
  std::vector<unsigned char> bytes(big + 16);
  for (unsigned char& b : bytes) b = static_cast<unsigned char>(rng.below(256));
  struct OverrideGuard {
    ~OverrideGuard() { linalg::simd::set_force_scalar_override(-1); }
  } guard;
  // Both dispatch paths in one process: the carry-less-multiply fold
  // (where the CPU has it) and slicing-by-8 alone.
  for (const int forced : {0, 1}) {
    linalg::simd::set_force_scalar_override(forced);
    // Every length across the fold's 16- and 64-byte blocks and the
    // 8-byte slicing stride, at every misalignment of a 16-byte load.
    for (std::size_t offset = 0; offset < 16; ++offset) {
      for (std::size_t len = 0; len <= 640; ++len) {
        ASSERT_EQ(io::crc32(bytes.data() + offset, len),
                  bitwise_crc32(bytes.data() + offset, len))
            << "forced=" << forced << " offset=" << offset << " len=" << len;
      }
    }
    EXPECT_EQ(io::crc32(bytes.data() + 3, big),
              bitwise_crc32(bytes.data() + 3, big))
        << "forced=" << forced;
  }
}

TEST(ModelStore, SavedFileCarriesCrcFooter) {
  const auto model = make_model(vprofile::DistanceMetric::kMahalanobis);
  std::stringstream ss;
  ASSERT_TRUE(io::save_model(model, ss));
  const std::string full = ss.str();
  // Last line is "crc32 <8 hex>\n" and it verifies against the payload.
  ASSERT_GE(full.size(), 15u);
  const std::string footer = full.substr(full.size() - 15);
  EXPECT_EQ(footer.substr(0, 6), "crc32 ");
  std::uint32_t stored = 0;
  ASSERT_TRUE(io::parse_crc32_hex(footer.substr(6, 8), &stored));
  EXPECT_EQ(stored, io::crc32(full.substr(0, full.size() - 15)));
}

TEST(ModelStore, BitFlipAnywhereIsDetected) {
  const auto model = make_model(vprofile::DistanceMetric::kMahalanobis);
  std::stringstream ss;
  ASSERT_TRUE(io::save_model(model, ss));
  const std::string full = ss.str();
  // Flip one bit at positions swept through the file (including inside
  // the footer itself); every corruption must be refused.
  for (std::size_t pos = 0; pos < full.size();
       pos += std::max<std::size_t>(1, full.size() / 61)) {
    std::string corrupted = full;
    corrupted[pos] = static_cast<char>(corrupted[pos] ^ 0x08);
    if (corrupted == full) continue;
    std::stringstream in(corrupted);
    std::string error;
    EXPECT_FALSE(io::load_model(in, &error).has_value())
        << "bit flip at byte " << pos << " was not detected";
    EXPECT_FALSE(error.empty());
  }
}

TEST(ModelStore, TruncatedFooterIsRejected) {
  const auto model = make_model(vprofile::DistanceMetric::kMahalanobis);
  std::stringstream ss;
  ASSERT_TRUE(io::save_model(model, ss));
  const std::string full = ss.str();
  // Chop 1..15 bytes off the end: the footer is progressively mangled,
  // then gone entirely.  All of it must fail, none of it crash.
  for (std::size_t cut = 1; cut <= 15; ++cut) {
    std::stringstream in(full.substr(0, full.size() - cut));
    std::string error;
    EXPECT_FALSE(io::load_model(in, &error).has_value())
        << "footer truncated by " << cut << " bytes";
    EXPECT_NE(error.find("footer"), std::string::npos)
        << "unexpected error: " << error;
  }
}

TEST(ModelStore, LegacyFooterlessVersion1StillLoads) {
  // Files written before the integrity footer existed declare version 1
  // and end after the last cluster; they must keep loading (with no
  // integrity check) so a fleet upgrade does not orphan stored models.
  const auto model = make_model(vprofile::DistanceMetric::kMahalanobis);
  std::stringstream ss;
  ASSERT_TRUE(io::save_model(model, ss));
  std::string legacy = ss.str();
  legacy.resize(legacy.size() - 15);  // strip "crc32 <8 hex>\n"
  const std::string v2_header = "vprofile-model 2";
  ASSERT_EQ(legacy.compare(0, v2_header.size(), v2_header), 0);
  legacy.replace(0, v2_header.size(), "vprofile-model 1");
  std::stringstream in(legacy);
  std::string error;
  const auto loaded = io::load_model(in, &error);
  ASSERT_TRUE(loaded.has_value()) << error;
  EXPECT_EQ(loaded->clusters().size(), model.clusters().size());
  EXPECT_DOUBLE_EQ(loaded->clusters()[0].max_distance,
                   model.clusters()[0].max_distance);
}

/// A hand-built, valid version-2 body: one Mahalanobis cluster of
/// dimension 2.  Each reject case below changes one token of it.
const std::string kValidBody =
    "vprofile-model 2\n"
    "mahalanobis\n"
    "40 38000 2 14 1 250\n"
    "1\n"
    "9 ECU Alpha\n"
    "1 7\n"
    "2 100 200\n"
    "2 2 2 0 0 2\n"
    "2 2 0.5 0 0 0.5\n"
    "3.5 60 global\n";

/// Appends the CRC-32 footer, so a bad body reaches the parser.
std::string sign(const std::string& body) {
  return body + "crc32 " + io::crc32_hex(io::crc32(body)) + "\n";
}

/// kValidBody with its one occurrence of `from` replaced by `to`.
std::string edit(const std::string& from, const std::string& to) {
  std::string body = kValidBody;
  const std::size_t at = body.find(from);
  EXPECT_NE(at, std::string::npos) << from;
  EXPECT_EQ(body.find(from, at + 1), std::string::npos) << from;
  if (at != std::string::npos) body.replace(at, from.size(), to);
  return body;
}

TEST(ModelStore, EveryRejectLineHasAHandBuiltInput) {
  {
    std::stringstream in(sign(kValidBody));
    std::string error;
    ASSERT_TRUE(io::load_model(in, &error).has_value()) << error;
  }
  struct RejectCase {
    std::string want;  // the error, or its leading part
    std::string input;
    bool bad_stream = false;
  };
  const std::vector<RejectCase> cases = {
      {"stream failure", sign(kValidBody), true},
      {"unreadable header", ""},
      {"not a vprofile model file", "vprofile-trace 2\n"},
      {"unsupported model version 3", "vprofile-model 3\n"},
      {"missing or truncated integrity footer", kValidBody},
      {"malformed integrity footer", kValidBody + "crc32 0000000g\n"},
      {"integrity check failed (CRC-32 mismatch)",
       edit("38000", "38001") + sign(kValidBody).substr(kValidBody.size())},
      {"missing metric", sign("vprofile-model 2\n")},
      {"unknown metric 'cosine'", sign(edit("mahalanobis", "cosine"))},
      {"malformed extraction config", sign(edit(" 250\n", " x\n"))},
      {"malformed cluster count", sign(edit("250\n1\n", "250\n0\n"))},
      {"malformed cluster name length",
       sign(edit("9 ECU Alpha", "x ECU Alpha"))},
      {"truncated cluster name", sign(edit("9 ECU Alpha", "999 ECU Alpha"))},
      {"malformed SA count", sign(edit("1 7\n", "x 7\n"))},
      {"malformed SA", sign(edit("1 7\n", "1 300\n"))},
      {"malformed cluster statistics", sign(edit("2 100 200", "2 100 nan"))},
      {"malformed cluster scalars", sign(edit("3.5 60", "3.5 x"))},
      {"invalid cluster max distance", sign(edit("3.5 60", "-3.5 60"))},
      {"malformed extraction threshold", sign(edit("global", "abc"))},
      {"malformed extraction threshold", sign(edit("global", "inf"))},
      {"inconsistent model: Model: Mahalanobis cluster lacks an inverse",
       sign(edit("2 2 0.5 0 0 0.5", "0 0"))},
  };
  for (const RejectCase& c : cases) {
    std::stringstream in(c.input);
    if (c.bad_stream) in.setstate(std::ios::badbit);
    std::string error;
    EXPECT_FALSE(io::load_model(in, &error).has_value()) << c.want;
    EXPECT_EQ(error.substr(0, c.want.size()), c.want);
  }
}

TEST(AtomicFile, ReplacesContentAtomically) {
  const std::string path = ::testing::TempDir() + "/atomic_probe.txt";
  std::string error;
  ASSERT_TRUE(io::atomic_write_file(path, "first\n", &error)) << error;
  ASSERT_TRUE(io::atomic_write_file(path, "second\n", &error)) << error;
  std::ifstream in(path);
  std::string content((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
  EXPECT_EQ(content, "second\n");
  // No temp file left behind.
  EXPECT_FALSE(std::ifstream(path + ".tmp").good());
}

TEST(AtomicFile, FailureLeavesTargetUntouched) {
  std::string error;
  EXPECT_FALSE(io::atomic_write_file("/nonexistent-dir/x.txt", "data", &error));
  EXPECT_FALSE(error.empty());
}

TEST(ModelStore, RoundTripPreservesExactBits) {
  // setprecision(17) guarantees double -> text -> double identity; the
  // round-trip must therefore be bit-exact, not merely close.
  const auto model = make_model(vprofile::DistanceMetric::kMahalanobis);
  std::stringstream first;
  ASSERT_TRUE(io::save_model(model, first));
  const auto loaded = io::load_model(first);
  ASSERT_TRUE(loaded.has_value());
  std::stringstream second;
  ASSERT_TRUE(io::save_model(*loaded, second));
  EXPECT_EQ(first.str(), second.str());
}

TEST(TraceStore, RejectsWrongMagic) {
  std::stringstream ss("XXXXGARBAGE");
  std::string error;
  EXPECT_FALSE(io::load_traces(ss, &error).has_value());
  EXPECT_NE(error.find("not a vprofile trace file"), std::string::npos);
}

TEST(TraceStore, RejectsByteSwappedMagicAsEndiannessMismatch) {
  io::TraceSet set;
  set.sample_rate_hz = 1e6;
  set.resolution_bits = 16;
  set.traces = {{1.0, 2.0}};
  std::stringstream ss;
  ASSERT_TRUE(io::save_traces(set, ss));
  std::string bytes = ss.str();
  // Reverse the 4 magic bytes, as written by an opposite-endian machine.
  std::swap(bytes[0], bytes[3]);
  std::swap(bytes[1], bytes[2]);
  std::stringstream swapped(bytes);
  std::string error;
  EXPECT_FALSE(io::load_traces(swapped, &error).has_value());
  EXPECT_NE(error.find("endianness"), std::string::npos);
}

TEST(TraceStore, RejectsTruncatedSamples) {
  io::TraceSet set;
  set.sample_rate_hz = 1.0;
  set.resolution_bits = 8;
  set.traces = {{1.0, 2.0, 3.0, 4.0}};
  std::stringstream ss;
  ASSERT_TRUE(io::save_traces(set, ss));
  const std::string full = ss.str();
  std::stringstream truncated(full.substr(0, full.size() - 8));
  EXPECT_FALSE(io::load_traces(truncated).has_value());
}

TEST(TraceStore, TruncationAtEveryByteFailsCleanly) {
  io::TraceSet set;
  set.sample_rate_hz = 20e6;
  set.resolution_bits = 16;
  set.traces = {{1.5, 2.5, 3.5}, {}, {42.0, 43.0}};
  std::stringstream ss;
  ASSERT_TRUE(io::save_traces(set, ss));
  const std::string full = ss.str();
  for (std::size_t len = 0; len < full.size(); ++len) {
    std::stringstream truncated(full.substr(0, len));
    std::string error = "unset";
    const auto loaded = io::load_traces(truncated, &error);
    EXPECT_FALSE(loaded.has_value()) << "prefix length " << len;
    EXPECT_NE(error, "unset") << "prefix length " << len;
  }
}

TEST(TraceStore, RejectsNonFiniteSamples) {
  io::TraceSet set;
  set.sample_rate_hz = 1e6;
  set.resolution_bits = 12;
  set.traces = {{1.0, std::numeric_limits<double>::quiet_NaN(), 3.0}};
  std::stringstream ss;
  ASSERT_TRUE(io::save_traces(set, ss));
  std::string error;
  EXPECT_FALSE(io::load_traces(ss, &error).has_value());
  EXPECT_NE(error.find("non-finite"), std::string::npos);
}

TEST(TraceStore, RejectsNonFiniteSampleRate) {
  io::TraceSet set;
  set.sample_rate_hz = std::numeric_limits<double>::infinity();
  set.resolution_bits = 12;
  set.traces = {{1.0}};
  std::stringstream ss;
  ASSERT_TRUE(io::save_traces(set, ss));
  std::string error;
  EXPECT_FALSE(io::load_traces(ss, &error).has_value());
  EXPECT_NE(error.find("sample rate"), std::string::npos);
}

TEST(TraceStore, RejectsInvalidResolution) {
  for (int bits : {0, -4, 48}) {
    io::TraceSet set;
    set.sample_rate_hz = 1e6;
    set.resolution_bits = bits;
    set.traces = {{1.0}};
    std::stringstream ss;
    ASSERT_TRUE(io::save_traces(set, ss));
    std::string error;
    EXPECT_FALSE(io::load_traces(ss, &error).has_value()) << bits;
    EXPECT_NE(error.find("resolution"), std::string::npos) << bits;
  }
}

TEST(TraceStore, RejectsImplausibleDeclaredLength) {
  // Hand-build a header that declares a multi-terabyte trace; the loader
  // must reject it from the header alone rather than attempt the
  // allocation.
  std::stringstream ss;
  const std::uint32_t magic = 0x56505452;
  const std::uint32_t version = 1;
  const double rate = 1e6;
  const std::int32_t bits = 16;
  const std::uint64_t count = 1;
  const std::uint64_t huge_len = 1ull << 40;
  ss.write(reinterpret_cast<const char*>(&magic), sizeof(magic));
  ss.write(reinterpret_cast<const char*>(&version), sizeof(version));
  ss.write(reinterpret_cast<const char*>(&rate), sizeof(rate));
  ss.write(reinterpret_cast<const char*>(&bits), sizeof(bits));
  ss.write(reinterpret_cast<const char*>(&count), sizeof(count));
  ss.write(reinterpret_cast<const char*>(&huge_len), sizeof(huge_len));
  std::string error;
  EXPECT_FALSE(io::load_traces(ss, &error).has_value());
  EXPECT_NE(error.find("implausible"), std::string::npos);
}

TEST(TraceStore, RoundTripPreservesExactBits) {
  // Binary doubles round-trip untouched: exercise awkward bit patterns
  // (denormals, negative zero, code values with long fractions).
  io::TraceSet set;
  set.sample_rate_hz = 20e6;
  set.resolution_bits = 16;
  set.traces = {{5e-324, -0.0, 1.0 / 3.0, 65535.000000001, 0.1}};
  std::stringstream ss;
  ASSERT_TRUE(io::save_traces(set, ss));
  const auto loaded = io::load_traces(ss);
  ASSERT_TRUE(loaded.has_value());
  ASSERT_EQ(loaded->traces.size(), 1u);
  for (std::size_t i = 0; i < set.traces[0].size(); ++i) {
    EXPECT_EQ(std::memcmp(&loaded->traces[0][i], &set.traces[0][i],
                          sizeof(double)),
              0)
        << "sample " << i;
  }
}

TEST(TraceStore, FileHelpersWork) {
  io::TraceSet set;
  set.sample_rate_hz = 10e6;
  set.resolution_bits = 12;
  set.traces = {{7.0, 8.0}};
  const std::string path = ::testing::TempDir() + "/traces.vpt";
  ASSERT_TRUE(io::save_traces_file(set, path));
  EXPECT_TRUE(io::load_traces_file(path).has_value());
  EXPECT_FALSE(io::load_traces_file("/nonexistent/y.vpt").has_value());
}

// ---------------------------------------------------------------------------
// io::json negative-path fuzz.  The parser reads incident bundles and
// manifests that may arrive torn or corrupted; every failure must be a
// clean `false` with a diagnostic — never a throw, crash or over-read.

/// A representative document exercising every value type, escapes,
/// nesting and the project's non-finite number convention.
const std::string& fuzz_document() {
  static const std::string doc =
      "{\"name\":\"bundle \\\"x\\\"\\n\",\"version\":2,"
      "\"values\":[1.5,-0.25,1e308,\"inf\",\"nan\",null,true,false],"
      "\"nested\":{\"deep\":[[{\"k\":\"v\"}]],\"empty\":{},\"arr\":[]},"
      "\"text\":\"braces {не} [ascii] \\u0041\"}  ";
  return doc;
}

TEST(Json, FuzzDocumentParsesWhole) {
  io::json::Value root;
  std::string error;
  ASSERT_TRUE(io::json::parse(fuzz_document(), &root, &error)) << error;
  ASSERT_EQ(root.type, io::json::Value::Type::kObject);
  const io::json::Value* values = root.find("values");
  ASSERT_NE(values, nullptr);
  ASSERT_TRUE(values->is_array());
  double out = 0.0;
  ASSERT_TRUE(io::json::flexible_number(values->array[3], &out));
  EXPECT_TRUE(std::isinf(out));
}

// A document truncated at EVERY byte offset must fail cleanly: a prefix
// of an object is never a complete document.
TEST(Json, TruncationAtEveryByteOffsetFailsCleanly) {
  const std::string& doc = fuzz_document();
  // Cuts inside the trailing whitespace still leave a complete document;
  // every cut at or before the closing brace must fail.
  const std::size_t end = doc.find_last_of('}') + 1;
  for (std::size_t cut = 0; cut < end; ++cut) {
    io::json::Value root;
    std::string error;
    EXPECT_FALSE(io::json::parse(doc.substr(0, cut), &root, &error))
        << "cut=" << cut;
    EXPECT_FALSE(error.empty()) << "cut=" << cut;
  }
}

// Flipping any single byte must never crash the parser; it either
// rejects the document with a diagnostic or yields some other valid
// document (a digit flip, say) — both are acceptable, dying is not.
TEST(Json, SingleByteFlipsNeverCrashTheParser) {
  const std::string& doc = fuzz_document();
  const unsigned char masks[] = {0x01, 0x20, 0x80};
  for (std::size_t off = 0; off < doc.size(); ++off) {
    for (const unsigned char mask : masks) {
      std::string mutated = doc;
      mutated[off] = static_cast<char>(
          static_cast<unsigned char>(mutated[off]) ^ mask);
      io::json::Value root;
      std::string error;
      const bool ok = io::json::parse(mutated, &root, &error);
      if (!ok) {
        EXPECT_FALSE(error.empty()) << "off=" << off << " mask=" << int{mask};
      }
    }
  }
}

// Deterministic garbage (an LCG byte stream) must always be rejected.
TEST(Json, GarbageBytesAreRejected) {
  std::uint64_t state = 0x2545F4914F6CDD1DULL;
  for (int round = 0; round < 32; ++round) {
    std::string garbage;
    for (int i = 0; i < 64; ++i) {
      state = state * 6364136223846793005ULL + 1442695040888963407ULL;
      garbage.push_back(static_cast<char>((state >> 33) & 0xFF));
    }
    io::json::Value root;
    std::string error;
    EXPECT_FALSE(io::json::parse(garbage, &root, &error)) << "round=" << round;
  }
}

// A hostile nesting bomb must hit the depth ceiling, not the stack.
TEST(Json, NestingBombIsRejectedNotOverflowed) {
  std::string bomb;
  for (int i = 0; i < 100000; ++i) bomb.push_back('[');
  io::json::Value root;
  std::string error;
  EXPECT_FALSE(io::json::parse(bomb, &root, &error));
  EXPECT_NE(error.find("deep"), std::string::npos) << error;
}

TEST(Json, TrailingGarbageAfterDocumentIsRejected) {
  io::json::Value root;
  std::string error;
  EXPECT_FALSE(io::json::parse("{\"a\":1} trailing", &root, &error));
  EXPECT_FALSE(io::json::parse("{\"a\":1}{\"b\":2}", &root, &error));
}

}  // namespace
