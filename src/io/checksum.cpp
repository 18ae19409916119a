#include "io/checksum.hpp"

#include <array>

#include "linalg/simd_dispatch.hpp"
#include "linalg/simd_kernels.hpp"

namespace io {
namespace {

using CrcTables = std::array<std::array<std::uint32_t, 256>, 8>;

/// Slicing-by-8 tables for the reflected polynomial, built at compile
/// time.  tables[0] is the classic byte table; tables[k][b] is the CRC
/// contribution of byte b followed by k zero bytes, so one step folds
/// eight input bytes with eight independent lookups.
constexpr CrcTables make_tables() {
  CrcTables t{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1u) != 0 ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
    t[0][i] = c;
  }
  for (std::size_t k = 1; k < t.size(); ++k) {
    for (std::size_t i = 0; i < 256; ++i) {
      const std::uint32_t prev = t[k - 1][i];
      t[k][i] = (prev >> 8) ^ t[0][prev & 0xFFu];
    }
  }
  return t;
}

constexpr CrcTables kTables = make_tables();

std::uint32_t load_le32(const unsigned char* p) {
  return static_cast<std::uint32_t>(p[0]) |
         static_cast<std::uint32_t>(p[1]) << 8 |
         static_cast<std::uint32_t>(p[2]) << 16 |
         static_cast<std::uint32_t>(p[3]) << 24;
}

}  // namespace

std::uint32_t crc32(const void* data, std::size_t len) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  std::uint32_t crc = 0xFFFFFFFFu;
  // The carry-less-multiply fold takes every whole 16-byte block of an
  // input of 64 bytes or more; slicing-by-8 finishes the tail, and is the
  // whole path on short inputs and when the fold cannot run.
  if (len >= 64 && linalg::simd::resolve_pclmul()) {
    const std::size_t folded = len & ~std::size_t{15};
    crc = linalg::simd::crc32_fold_pclmul(bytes, folded, crc);
    bytes += folded;
    len -= folded;
  }
  // Byte-wise loads keep this host-endianness-free; compilers fuse them
  // into one 32-bit load on little-endian targets.
  for (; len >= 8; bytes += 8, len -= 8) {
    const std::uint32_t lo = load_le32(bytes) ^ crc;
    const std::uint32_t hi = load_le32(bytes + 4);
    crc = kTables[7][lo & 0xFFu] ^ kTables[6][(lo >> 8) & 0xFFu] ^
          kTables[5][(lo >> 16) & 0xFFu] ^ kTables[4][lo >> 24] ^
          kTables[3][hi & 0xFFu] ^ kTables[2][(hi >> 8) & 0xFFu] ^
          kTables[1][(hi >> 16) & 0xFFu] ^ kTables[0][hi >> 24];
  }
  for (; len > 0; ++bytes, --len) {
    crc = kTables[0][(crc ^ *bytes) & 0xFFu] ^ (crc >> 8);
  }
  return crc ^ 0xFFFFFFFFu;
}

std::string crc32_hex(std::uint32_t crc) {
  static const char* digits = "0123456789abcdef";
  std::string out(8, '0');
  for (int i = 7; i >= 0; --i) {
    out[static_cast<std::size_t>(i)] = digits[crc & 0xFu];
    crc >>= 4;
  }
  return out;
}

bool parse_crc32_hex(const std::string& hex, std::uint32_t* crc) {
  if (hex.size() != 8 || crc == nullptr) return false;
  std::uint32_t value = 0;
  for (char ch : hex) {
    std::uint32_t digit = 0;
    if (ch >= '0' && ch <= '9') {
      digit = static_cast<std::uint32_t>(ch - '0');
    } else if (ch >= 'a' && ch <= 'f') {
      digit = static_cast<std::uint32_t>(ch - 'a') + 10u;
    } else if (ch >= 'A' && ch <= 'F') {
      digit = static_cast<std::uint32_t>(ch - 'A') + 10u;
    } else {
      return false;
    }
    value = (value << 4) | digit;
  }
  *crc = value;
  return true;
}

}  // namespace io
