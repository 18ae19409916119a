#include "canbus/stuffing.hpp"

namespace canbus {

BitVector stuff(const BitVector& bits) {
  BitVector out;
  out.reserve(bits.size() + bits.size() / 5);
  std::size_t run = 0;
  bool run_value = false;
  for (Bit b : bits) {
    if (run > 0 && b == run_value) {
      ++run;
    } else {
      run_value = b;
      run = 1;
    }
    out.push_back(b);
    if (run == 5) {
      // Insert the complement; it starts a new run of length 1.
      out.push_back(!run_value);
      run_value = !run_value;
      run = 1;
    }
  }
  return out;
}

}  // namespace canbus
