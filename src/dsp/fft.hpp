// Radix-2 decimation-in-time FFT/IFFT.
//
// This is the OFDM engine of the MC-CDMA transmitter (paper Figure 4's
// IFFT block). Sizes must be powers of two.
#pragma once

#include <complex>
#include <cstddef>
#include <vector>

#include "dsp/fixed.hpp"

namespace pdr::dsp {

using Cplx = std::complex<double>;

/// In-place forward FFT. `data.size()` must be a power of two >= 1.
void fft(std::vector<Cplx>& data);

/// In-place inverse FFT including the 1/N normalization.
void ifft(std::vector<Cplx>& data);

/// In-place fixed-point radix-2 transform over Q15 samples — the
/// arithmetic an FPGA datapath actually performs. Every butterfly stage
/// scales by 1/2 (unconditional block scaling), so overflow is
/// impossible and the overall scaling is 1/N in both directions:
///   forward:  output = FFT(x) / N
///   inverse:  output = IFFT(x) (the standard 1/N convention, exactly
///             comparable to ifft()).
void fft_q15(std::vector<CQ15>& data, bool inverse);

/// Conversions between double-precision and Q15 complex vectors
/// (saturating on the way in).
std::vector<CQ15> to_q15(const std::vector<Cplx>& x);
std::vector<Cplx> from_q15(const std::vector<CQ15>& x);

/// True if n is a nonzero power of two.
constexpr bool is_pow2(std::size_t n) { return n != 0 && (n & (n - 1)) == 0; }

/// log2 of a power of two.
constexpr unsigned log2_pow2(std::size_t n) {
  unsigned l = 0;
  while ((std::size_t{1} << l) < n) ++l;
  return l;
}

}  // namespace pdr::dsp
