#include "canbus/frame.hpp"

#include <stdexcept>

#include "canbus/stuffing.hpp"

namespace canbus {
namespace {

void push_bits_msb_first(std::uint32_t value, int width, BitVector& out) {
  for (int i = width - 1; i >= 0; --i) out.push_back(((value >> i) & 1u) != 0);
}

// SOF through the CRC sequence: the region bit stuffing applies to.
BitVector build_stuffable_region(const DataFrame& frame) {
  if (frame.payload.size() > 8) {
    throw std::invalid_argument("build_stuffable_region: payload > 8 bytes");
  }
  const std::uint32_t id29 = frame.id.pack();
  BitVector bits;
  bits.reserve(64 + frame.payload.size() * 8 + 15);

  bits.push_back(false);                       // SOF: dominant
  push_bits_msb_first(id29 >> 18, 11, bits);   // Base ID = ID28..ID18
  bits.push_back(true);                        // SRR: recessive
  bits.push_back(true);                        // IDE: recessive (extended)
  push_bits_msb_first(id29 & 0x3FFFF, 18, bits);  // Ext ID = ID17..ID0
  bits.push_back(false);                       // RTR: dominant (data frame)
  bits.push_back(false);                       // r1
  bits.push_back(false);                       // r0
  push_bits_msb_first(static_cast<std::uint32_t>(frame.payload.size()), 4,
                      bits);                   // DLC
  for (std::uint8_t byte : frame.payload) push_bits_msb_first(byte, 8, bits);

  append_crc15(bits, bits);                    // CRC over SOF..data
  return bits;
}

void append_tail(BitVector& bits) {
  bits.push_back(true);   // CRC delimiter
  bits.push_back(false);  // ACK slot, asserted dominant by receivers
  bits.push_back(true);   // ACK delimiter
  for (int i = 0; i < 7; ++i) bits.push_back(true);  // EOF
}

}  // namespace

BitVector build_unstuffed_bits(const DataFrame& frame) {
  BitVector bits = build_stuffable_region(frame);
  append_tail(bits);
  return bits;
}

BitVector build_wire_bits(const DataFrame& frame) {
  BitVector bits = stuff(build_stuffable_region(frame));
  append_tail(bits);
  return bits;
}

std::size_t wire_bit_count(const DataFrame& frame) {
  return build_wire_bits(frame).size();
}

}  // namespace canbus
