#include "oracles.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "core/extractor.hpp"
#include "linalg/vector_ops.hpp"

namespace oracle {

double max_abs_diff(const linalg::Matrix& a, const linalg::Matrix& b) {
  if (a.rows() != b.rows() || a.cols() != b.cols()) {
    throw std::invalid_argument("max_abs_diff: shape mismatch");
  }
  double m = 0.0;
  for (std::size_t i = 0; i < a.data().size(); ++i) {
    m = std::max(m, std::fabs(a.data()[i] - b.data()[i]));
  }
  return m;
}

linalg::Matrix matmul(const linalg::Matrix& a, const linalg::Matrix& b) {
  if (a.cols() != b.rows()) {
    throw std::invalid_argument("matmul: inner dimension mismatch");
  }
  linalg::Matrix out(a.rows(), b.cols());
  for (std::size_t r = 0; r < a.rows(); ++r) {
    for (std::size_t k = 0; k < a.cols(); ++k) {
      for (std::size_t c = 0; c < b.cols(); ++c) {
        out.at(r, c) += a.at(r, k) * b.at(k, c);
      }
    }
  }
  return out;
}

double quadratic_form(const linalg::Cholesky& factor,
                      const linalg::Vector& x) {
  const std::size_t n = factor.dim();
  if (x.size() != n) {
    throw std::invalid_argument("quadratic_form: size mismatch");
  }
  const linalg::Matrix& l = factor.lower();
  double acc = 0.0;
  linalg::Vector y(n);
  for (std::size_t i = 0; i < n; ++i) {
    double s = x[i];
    for (std::size_t k = 0; k < i; ++k) s -= l.at(i, k) * y[k];
    y[i] = s / l.at(i, i);
    acc += y[i] * y[i];
  }
  return acc;
}

double mahalanobis_distance(const linalg::Vector& x, const linalg::Vector& mu,
                            const linalg::Cholesky& sigma_factor) {
  if (x.size() != mu.size() || x.size() != sigma_factor.dim()) {
    throw std::invalid_argument("mahalanobis_distance: size mismatch");
  }
  const double q = quadratic_form(sigma_factor, linalg::subtract(x, mu));
  return std::sqrt(std::max(0.0, q));
}

canbus::J1939Id unpack_j1939(std::uint32_t id29) {
  if (id29 > 0x1FFFFFFF) {
    throw std::invalid_argument("unpack_j1939: value exceeds 29 bits");
  }
  canbus::J1939Id id;
  id.priority = static_cast<std::uint8_t>((id29 >> 26) & 0x7);
  id.pgn = (id29 >> 8) & 0x3FFFF;
  id.source_address = static_cast<std::uint8_t>(id29 & 0xFF);
  return id;
}

std::optional<canbus::BitVector> destuff(const canbus::BitVector& bits) {
  canbus::BitVector out;
  out.reserve(bits.size());
  std::size_t run = 0;
  bool run_value = false;
  bool skip_next = false;
  for (const canbus::Bit b : bits) {
    if (skip_next) {
      // The bit after a length-5 run must be the complement.
      if (b == run_value) return std::nullopt;
      skip_next = false;
      run_value = b;
      run = 1;
      continue;
    }
    if (run > 0 && b == run_value) {
      ++run;
    } else {
      run_value = b;
      run = 1;
    }
    out.push_back(b);
    if (run == 5) skip_next = true;
  }
  return out;
}

namespace {

std::uint32_t read_bits_msb_first(const canbus::BitVector& bits,
                                  units::BitIndex first, int width) {
  std::uint32_t v = 0;
  for (int i = 0; i < width; ++i) {
    const std::size_t at = first.value() + static_cast<std::size_t>(i);
    v = (v << 1) | (bits[at] ? 1u : 0u);
  }
  return v;
}

}  // namespace

std::optional<canbus::DataFrame> parse_wire_bits(
    const canbus::BitVector& wire) {
  namespace fb = canbus::frame_bits;
  // Incrementally destuff until the frame length (known once the DLC is
  // decoded) is reached, then validate the fixed-form tail.
  canbus::BitVector unstuffed;
  unstuffed.reserve(wire.size());
  std::size_t run = 0;
  bool run_value = false;
  bool skip_next = false;
  std::size_t stuffable_len = 0;  // unknown until DLC parsed
  std::size_t wire_pos = 0;

  for (; wire_pos < wire.size(); ++wire_pos) {
    const canbus::Bit b = wire[wire_pos];
    if (skip_next) {
      if (b == run_value) return std::nullopt;  // stuff violation
      skip_next = false;
      run_value = b;
      run = 1;
      continue;
    }
    if (run > 0 && b == run_value) {
      ++run;
    } else {
      run_value = b;
      run = 1;
    }
    unstuffed.push_back(b);
    if (run == 5) skip_next = true;

    if (stuffable_len == 0 && unstuffed.size() > (fb::kDlcFirst + 3).value()) {
      const std::uint32_t dlc = read_bits_msb_first(unstuffed, fb::kDlcFirst, 4);
      if (dlc > 8) return std::nullopt;
      stuffable_len = fb::kDataFirst.value() + 8 * dlc + 15;
    }
    if (stuffable_len != 0 && unstuffed.size() == stuffable_len) {
      ++wire_pos;
      break;
    }
  }
  if (stuffable_len == 0 || unstuffed.size() != stuffable_len) {
    return std::nullopt;  // truncated frame
  }
  // A run of five ending exactly on the last CRC bit still inserts a
  // stuff bit before the (unstuffed) CRC delimiter; consume it.
  if (skip_next) {
    if (wire_pos >= wire.size() || wire[wire_pos] == run_value) {
      return std::nullopt;
    }
    ++wire_pos;
  }

  // Fixed-form tail: CRC delim, ACK slot, ACK delim, 7 x EOF.
  static constexpr canbus::Bit kTail[] = {true, false, true, true, true,
                                          true, true,  true, true, true};
  for (const canbus::Bit expected : kTail) {
    if (wire_pos >= wire.size() || wire[wire_pos] != expected) {
      return std::nullopt;
    }
    ++wire_pos;
  }

  // Structural checks on fixed bits.
  if (unstuffed[fb::kSof.value()]) return std::nullopt;   // SOF must be 0
  if (!unstuffed[fb::kSrr.value()]) return std::nullopt;  // SRR must be 1
  if (!unstuffed[fb::kIde.value()]) return std::nullopt;  // IDE must be 1
  if (unstuffed[fb::kRtr.value()]) return std::nullopt;   // RTR must be 0

  // CRC check: recompute over SOF..data.
  const std::size_t crc_first = stuffable_len - 15;
  const canbus::BitVector body(
      unstuffed.begin(),
      unstuffed.begin() + static_cast<std::ptrdiff_t>(crc_first));
  const auto got_crc = static_cast<std::uint16_t>(
      read_bits_msb_first(unstuffed, units::BitIndex{crc_first}, 15));
  if (canbus::crc15(body) != got_crc) return std::nullopt;

  canbus::DataFrame frame;
  const std::uint32_t base = read_bits_msb_first(unstuffed, fb::kBaseIdFirst, 11);
  const std::uint32_t ext = read_bits_msb_first(unstuffed, fb::kExtIdFirst, 18);
  frame.id = unpack_j1939((base << 18) | ext);
  const std::uint32_t dlc = read_bits_msb_first(unstuffed, fb::kDlcFirst, 4);
  frame.payload.resize(dlc);
  for (std::uint32_t i = 0; i < dlc; ++i) {
    frame.payload[i] = static_cast<std::uint8_t>(
        read_bits_msb_first(unstuffed, fb::kDataFirst + 8 * i, 8));
  }
  return frame;
}

std::vector<pipeline::FrameResult> score_sequential(
    const vprofile::Model& model, const std::vector<dsp::Trace>& traces,
    const vprofile::DetectionConfig& dc) {
  std::vector<pipeline::FrameResult> results(traces.size());
  for (std::size_t i = 0; i < traces.size(); ++i) {
    pipeline::FrameResult& r = results[i];
    r.seq = i;
    auto edge_set = vprofile::extract_edge_set(traces[i], model.extraction(),
                                               &r.extract_error);
    if (!edge_set) continue;
    r.sa = edge_set->sa;
    r.detection = vprofile::detect(model, *edge_set, dc);
  }
  return results;
}

}  // namespace oracle
