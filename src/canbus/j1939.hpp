// SAE J1939 29-bit identifier layout (Fig 2.4 / Table 2.2):
//   priority (3 bits) | parameter group number (18 bits) | source address (8).
#pragma once

#include <cstdint>

namespace canbus {

/// Decomposed J1939 identifier.
struct J1939Id {
  std::uint8_t priority = 0;  // 3 bits, 0 is highest priority
  std::uint32_t pgn = 0;      // 18 bits
  std::uint8_t source_address = 0;

  /// Packs into the 29-bit CAN extended identifier.  Throws
  /// std::invalid_argument when priority or pgn exceed their field widths.
  std::uint32_t pack() const;

  bool operator==(const J1939Id&) const = default;
};

/// Number of bits in an extended CAN identifier.
inline constexpr int kExtendedIdBits = 29;
/// Bit width of the J1939 source address field.
inline constexpr int kSourceAddressBits = 8;

}  // namespace canbus
