// Test-side reference implementations: the oracles product code is
// checked against, and the helpers tests compute expected values with.
//
// None of this ships.  The receiver-side CAN parser checks the
// transmit-side frame builder, the Cholesky quadratic form checks the
// explicit-inverse Mahalanobis distance every scorer uses, and the
// per-frame sequential scorer checks the pipeline and the supervisor.
// Keeping them here, not in src/, is what tools/lint/reachability.sh
// enforces: a src/ function that only tests link fails the gate.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "canbus/frame.hpp"
#include "canbus/j1939.hpp"
#include "core/detector.hpp"
#include "core/model.hpp"
#include "dsp/trace.hpp"
#include "linalg/cholesky.hpp"
#include "linalg/matrix.hpp"
#include "pipeline/pipeline.hpp"

namespace oracle {

// --- linalg ----------------------------------------------------------------

/// Maximum absolute element difference; throws std::invalid_argument on a
/// shape mismatch.
double max_abs_diff(const linalg::Matrix& a, const linalg::Matrix& b);

/// Matrix product a * b; throws std::invalid_argument on an inner
/// dimension mismatch.
linalg::Matrix matmul(const linalg::Matrix& a, const linalg::Matrix& b);

/// x^T A^-1 x from A's Cholesky factor: ||L^-1 x||^2, one forward
/// substitution.  Throws on a size mismatch.
double quadratic_form(const linalg::Cholesky& factor, const linalg::Vector& x);

/// sqrt((x - mu)^T Sigma^-1 (x - mu)) through Sigma's Cholesky factor, with
/// no explicit inverse: the reference for linalg::mahalanobis_distance_inv.
double mahalanobis_distance(const linalg::Vector& x, const linalg::Vector& mu,
                            const linalg::Cholesky& sigma_factor);

// --- canbus ----------------------------------------------------------------

/// Splits a 29-bit identifier into its J1939 fields; throws
/// std::invalid_argument when the value needs more than 29 bits.
canbus::J1939Id unpack_j1939(std::uint32_t id29);

/// Removes stuff bits.  std::nullopt on a stuff violation (six
/// consecutive equal bits), which on a real bus signals an error frame.
std::optional<canbus::BitVector> destuff(const canbus::BitVector& bits);

/// Parses an on-wire bitstream back into a frame, as a receiver does.
/// std::nullopt on stuff violations, malformed fixed-form bits, a
/// truncated frame or a CRC mismatch.
std::optional<canbus::DataFrame> parse_wire_bits(const canbus::BitVector& wire);

// --- scoring ---------------------------------------------------------------

/// Per-frame Algorithm 1 + Algorithm 3 (extract_edge_set, then detect) over
/// a whole batch: the FrameResult stream every pipeline and supervisor
/// configuration must reproduce.
std::vector<pipeline::FrameResult> score_sequential(
    const vprofile::Model& model, const std::vector<dsp::Trace>& traces,
    const vprofile::DetectionConfig& dc);

}  // namespace oracle
