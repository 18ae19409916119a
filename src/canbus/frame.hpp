// CAN 2.0B extended data frame construction (Fig 2.2 / Table 2.1).  The on-wire bitstream produced here is what the analog
// synthesizer converts to a voltage waveform, and what vProfile's edge-set
// extractor traverses bit-by-bit.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "canbus/crc15.hpp"
#include "canbus/j1939.hpp"
#include "core/units.hpp"

namespace canbus {

/// Payload container: up to 8 octets.
using Payload = std::vector<std::uint8_t>;

/// A CAN 2.0B extended data frame before physical-layer encoding.
struct DataFrame {
  J1939Id id;
  Payload payload;  // 0-8 bytes

  bool operator==(const DataFrame&) const = default;
};

/// Zero-based positions of fields within the *unstuffed* extended data
/// frame, SOF = bit 0 (as used by the paper's Algorithm 1).  Typed as
/// units::BitIndex so a frame bit position can never be handed to an API
/// expecting a sample-grid index.
namespace frame_bits {
inline constexpr units::BitIndex kSof{0};
inline constexpr units::BitIndex kBaseIdFirst{1};    // 11 bits: 1..11
inline constexpr units::BitIndex kSrr{12};
inline constexpr units::BitIndex kIde{13};
inline constexpr units::BitIndex kExtIdFirst{14};    // 18 bits: 14..31
inline constexpr units::BitIndex kRtr{32};
/// SA = last 8 bits of the 29-bit identifier = unstuffed bits 24..31.
inline constexpr units::BitIndex kSourceAddrFirst{24};
inline constexpr units::BitIndex kSourceAddrLast{31};
/// First bit after the arbitration field (reserved bit r1); the edge set
/// is taken at or after this point because arbitration bits are unstable.
inline constexpr units::BitIndex kFirstPostArbitration{33};
inline constexpr units::BitIndex kDlcFirst{35};      // 4 bits: 35..38
inline constexpr units::BitIndex kDataFirst{39};
}  // namespace frame_bits

/// Builds the unstuffed logical bitstream of a data frame: SOF through EOF,
/// CRC computed over SOF..data.  Throws std::invalid_argument for payloads
/// longer than 8 bytes.
BitVector build_unstuffed_bits(const DataFrame& frame);

/// Builds the on-wire bitstream: stuffing applied from SOF through the CRC
/// sequence, followed by the unstuffed CRC delimiter, ACK slot (dominant,
/// as asserted by receivers of a valid frame), ACK delimiter and EOF.
BitVector build_wire_bits(const DataFrame& frame);

/// Total number of on-wire bits of a frame (stuffed), excluding interframe
/// space.
std::size_t wire_bit_count(const DataFrame& frame);

}  // namespace canbus
