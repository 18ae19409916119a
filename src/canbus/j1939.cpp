#include "canbus/j1939.hpp"

#include <stdexcept>

namespace canbus {

std::uint32_t J1939Id::pack() const {
  if (priority > 0x7) {
    throw std::invalid_argument("J1939Id::pack: priority exceeds 3 bits");
  }
  if (pgn > 0x3FFFF) {
    throw std::invalid_argument("J1939Id::pack: pgn exceeds 18 bits");
  }
  return (static_cast<std::uint32_t>(priority) << 26) | (pgn << 8) |
         source_address;
}

}  // namespace canbus
