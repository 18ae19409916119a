#include "io/model_store.hpp"

#include <cmath>
#include <fstream>
#include <iomanip>
#include <limits>
#include <istream>
#include <ostream>
#include <sstream>

#include "io/checksum.hpp"

namespace io {
namespace {

constexpr const char* kMagic = "vprofile-model";
/// Version 2 appends a `crc32 <8-hex>` footer covering every byte before
/// it; version 1 files (no footer) are still read for backward
/// compatibility, they just get no integrity check.
constexpr int kVersion = 2;
constexpr int kLegacyVersion = 1;
constexpr const char* kCrcPrefix = "crc32 ";

void write_vector(std::ostream& out, const linalg::Vector& v) {
  out << v.size();
  for (double x : v) out << ' ' << x;
  out << '\n';
}

/// Reads one double that must be finite.  operator>> already fails on an
/// out-of-range literal and parses neither "inf" nor "nan" (num_get), so
/// the finiteness test is a second line: detection must never load a
/// model whose distances would all come out NaN.
bool read_finite(std::istream& in, double& x) {
  return static_cast<bool>(in >> x) && std::isfinite(x);
}

bool read_vector(std::istream& in, linalg::Vector& v) {
  std::size_t n = 0;
  if (!(in >> n)) return false;
  v.resize(n);
  for (double& x : v) {
    if (!read_finite(in, x)) return false;
  }
  return true;
}

void write_matrix(std::ostream& out, const linalg::Matrix& m) {
  out << m.rows() << ' ' << m.cols();
  for (double x : m.data()) out << ' ' << x;
  out << '\n';
}

bool read_matrix(std::istream& in, linalg::Matrix& m) {
  std::size_t rows = 0;
  std::size_t cols = 0;
  if (!(in >> rows >> cols)) return false;
  if (rows == 0 || cols == 0) {
    m = linalg::Matrix();
    return true;
  }
  m = linalg::Matrix(rows, cols);
  for (double& x : m.data()) {
    if (!read_finite(in, x)) return false;
  }
  return true;
}

bool fail(std::string* error, const std::string& message) {
  if (error != nullptr) *error = message;
  return false;
}

}  // namespace

namespace {

/// Serializes everything except the integrity footer.
bool write_body(const vprofile::Model& model, std::ostream& out) {
  out << std::setprecision(17);
  out << kMagic << ' ' << kVersion << '\n';
  out << to_string(model.metric()) << '\n';
  const auto& ex = model.extraction();
  out << ex.bit_width_samples << ' ' << ex.bit_threshold << ' '
      << ex.prefix_len << ' ' << ex.suffix_len << ' ' << ex.num_edge_sets
      << ' ' << ex.edge_set_spacing << '\n';
  out << model.clusters().size() << '\n';
  for (const auto& cl : model.clusters()) {
    // Cluster names may contain spaces; quote with a length prefix.
    out << cl.name.size() << ' ' << cl.name << '\n';
    out << cl.sas.size();
    for (std::uint8_t sa : cl.sas) out << ' ' << static_cast<int>(sa);
    out << '\n';
    write_vector(out, cl.mean);
    write_matrix(out, cl.covariance);
    write_matrix(out, cl.inv_covariance);
    out << cl.max_distance << ' ' << cl.edge_set_count << ' ';
    // NaN marks "use the global threshold" but operator>> cannot parse
    // "nan"; serialize it as an explicit token.
    if (std::isnan(cl.extraction_threshold)) {
      out << "global";
    } else {
      out << cl.extraction_threshold;
    }
    out << '\n';
  }
  return static_cast<bool>(out);
}

}  // namespace

bool save_model(const vprofile::Model& model, std::ostream& out) {
  std::ostringstream body;
  if (!write_body(model, body)) return false;
  const std::string payload = body.str();
  out << payload << kCrcPrefix << crc32_hex(crc32(payload)) << '\n';
  return static_cast<bool>(out);
}

bool save_model_file(const vprofile::Model& model, const std::string& path) {
  std::ofstream out(path);
  return out && save_model(model, out);
}

std::optional<vprofile::Model> load_model(std::istream& raw_in,
                                          std::string* error) {
  // Slurp the stream: the CRC footer covers raw bytes, so verification
  // has to happen before any formatted parsing consumes them.
  std::ostringstream slurp;
  slurp << raw_in.rdbuf();
  std::string content = slurp.str();
  if (raw_in.bad()) {
    fail(error, "stream failure");
    return std::nullopt;
  }

  {
    std::istringstream header(content);
    std::string magic;
    int version = 0;
    if (!(header >> magic >> version)) {
      fail(error, "unreadable header");
      return std::nullopt;
    }
    if (magic != kMagic) {
      fail(error, "not a vprofile model file");
      return std::nullopt;
    }
    if (version != kVersion && version != kLegacyVersion) {
      fail(error, "unsupported model version " + std::to_string(version));
      return std::nullopt;
    }
    if (version == kVersion) {
      // The footer is the final line: "crc32 <8 hex>\n" over every byte
      // before it.  A missing, truncated or mismatching footer all mean
      // the file cannot be trusted.
      const std::string footer_want = std::string(kCrcPrefix);
      const std::size_t footer_len = footer_want.size() + 8 + 1;  // + hex + \n
      if (content.size() < footer_len ||
          content.compare(content.size() - footer_len, footer_want.size(),
                          footer_want) != 0 ||
          content.back() != '\n') {
        fail(error, "missing or truncated integrity footer");
        return std::nullopt;
      }
      const std::string hex =
          content.substr(content.size() - 9, 8);  // between "crc32 " and \n
      std::uint32_t stored = 0;
      if (!parse_crc32_hex(hex, &stored)) {
        fail(error, "malformed integrity footer");
        return std::nullopt;
      }
      content.resize(content.size() - footer_len);
      if (crc32(content) != stored) {
        fail(error, "integrity check failed (CRC-32 mismatch)");
        return std::nullopt;
      }
    }
  }

  std::istringstream in(content);
  std::string magic;
  int version = 0;
  in >> magic >> version;  // validated above

  std::string metric_name;
  if (!(in >> metric_name)) {
    fail(error, "missing metric");
    return std::nullopt;
  }
  vprofile::DistanceMetric metric;
  if (metric_name == "euclidean") {
    metric = vprofile::DistanceMetric::kEuclidean;
  } else if (metric_name == "mahalanobis") {
    metric = vprofile::DistanceMetric::kMahalanobis;
  } else {
    fail(error, "unknown metric '" + metric_name + "'");
    return std::nullopt;
  }

  vprofile::ExtractionConfig ex;
  if (!(in >> ex.bit_width_samples >> ex.bit_threshold >> ex.prefix_len >>
        ex.suffix_len >> ex.num_edge_sets >> ex.edge_set_spacing) ||
      !std::isfinite(ex.bit_threshold)) {
    fail(error, "malformed extraction config");
    return std::nullopt;
  }

  std::size_t num_clusters = 0;
  if (!(in >> num_clusters) || num_clusters == 0) {
    fail(error, "malformed cluster count");
    return std::nullopt;
  }

  std::vector<vprofile::ClusterModel> clusters;
  clusters.reserve(num_clusters);
  for (std::size_t c = 0; c < num_clusters; ++c) {
    vprofile::ClusterModel cl;
    std::size_t name_len = 0;
    if (!(in >> name_len)) {
      fail(error, "malformed cluster name length");
      return std::nullopt;
    }
    in.get();  // the single separator space
    cl.name.resize(name_len);
    in.read(cl.name.data(), static_cast<std::streamsize>(name_len));
    if (!in) {
      fail(error, "truncated cluster name");
      return std::nullopt;
    }

    std::size_t num_sas = 0;
    if (!(in >> num_sas)) {
      fail(error, "malformed SA count");
      return std::nullopt;
    }
    cl.sas.resize(num_sas);
    for (auto& sa : cl.sas) {
      int v = 0;
      if (!(in >> v) || v < 0 || v > 255) {
        fail(error, "malformed SA");
        return std::nullopt;
      }
      sa = static_cast<std::uint8_t>(v);
    }

    if (!read_vector(in, cl.mean) || !read_matrix(in, cl.covariance) ||
        !read_matrix(in, cl.inv_covariance)) {
      fail(error, "malformed cluster statistics");
      return std::nullopt;
    }
    std::string threshold_token;
    if (!(in >> cl.max_distance >> cl.edge_set_count >> threshold_token)) {
      fail(error, "malformed cluster scalars");
      return std::nullopt;
    }
    if (!std::isfinite(cl.max_distance) || cl.max_distance < 0.0) {
      fail(error, "invalid cluster max distance");
      return std::nullopt;
    }
    if (threshold_token == "global") {
      cl.extraction_threshold = std::numeric_limits<double>::quiet_NaN();
    } else {
      try {
        cl.extraction_threshold = std::stod(threshold_token);
      } catch (const std::exception&) {
        fail(error, "malformed extraction threshold");
        return std::nullopt;
      }
      if (!std::isfinite(cl.extraction_threshold)) {
        fail(error, "malformed extraction threshold");
        return std::nullopt;
      }
    }
    clusters.push_back(std::move(cl));
  }

  try {
    return vprofile::Model(metric, ex, std::move(clusters));
  } catch (const std::exception& e) {
    fail(error, std::string("inconsistent model: ") + e.what());
    return std::nullopt;
  }
}

std::optional<vprofile::Model> load_model_file(const std::string& path,
                                               std::string* error) {
  std::ifstream in(path);
  if (!in) {
    if (error != nullptr) *error = "cannot open '" + path + "'";
    return std::nullopt;
  }
  return load_model(in, error);
}

}  // namespace io
