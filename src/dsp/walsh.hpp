// Walsh-Hadamard spreading codes for MC-CDMA.
//
// Code k of length L (L a power of two) is row k of the LxL Hadamard
// matrix with entries in {-1, +1}. Distinct rows are orthogonal, which is
// what lets MC-CDMA stack users on the same subcarriers.
#pragma once

#include <cstdint>
#include <vector>

namespace pdr::dsp {

/// Returns Walsh code `index` of length `length` (entries -1 / +1).
/// `length` must be a power of two and `index < length`.
std::vector<int> walsh_code(std::size_t length, std::size_t index);

}  // namespace pdr::dsp
