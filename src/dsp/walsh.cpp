#include "dsp/walsh.hpp"

#include <bit>

#include "util/error.hpp"

namespace pdr::dsp {

std::vector<int> walsh_code(std::size_t length, std::size_t index) {
  PDR_CHECK(length != 0 && (length & (length - 1)) == 0, "walsh_code", "length must be a power of two");
  PDR_CHECK(index < length, "walsh_code", "index out of range");
  std::vector<int> code(length);
  for (std::size_t n = 0; n < length; ++n) {
    // H[k][n] = (-1)^{popcount(k & n)}
    const auto bits = std::popcount(index & n);
    code[n] = (bits % 2 == 0) ? 1 : -1;
  }
  return code;
}

}  // namespace pdr::dsp
