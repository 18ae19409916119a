// CAN bit stuffing: after five consecutive bits of equal value a bit of
// opposite value is inserted (Section 2.1.1 of the paper).  Stuffing covers
// SOF through the CRC sequence; the CRC delimiter, ACK field and EOF are
// transmitted unstuffed.
#pragma once

#include "canbus/crc15.hpp"

namespace canbus {

/// Inserts stuff bits into `bits`.  The input must start at SOF because the
/// run-length state begins there.
BitVector stuff(const BitVector& bits);

}  // namespace canbus
