#include "dsp/fft.hpp"

#include <cmath>

#include "util/error.hpp"

namespace pdr::dsp {
namespace {

constexpr double kPi = 3.14159265358979323846264338327950288;

void bit_reverse_permute(std::vector<Cplx>& a) {
  const std::size_t n = a.size();
  std::size_t j = 0;
  for (std::size_t i = 1; i < n; ++i) {
    std::size_t bit = n >> 1;
    for (; j & bit; bit >>= 1) j ^= bit;
    j ^= bit;
    if (i < j) std::swap(a[i], a[j]);
  }
}

void transform(std::vector<Cplx>& a, bool inverse) {
  PDR_CHECK(is_pow2(a.size()), "dsp::fft", "size must be a power of two");
  bit_reverse_permute(a);
  const std::size_t n = a.size();
  for (std::size_t len = 2; len <= n; len <<= 1) {
    const double angle = (inverse ? 2.0 : -2.0) * kPi / static_cast<double>(len);
    const Cplx wl(std::cos(angle), std::sin(angle));
    for (std::size_t i = 0; i < n; i += len) {
      Cplx w(1.0, 0.0);
      for (std::size_t k = 0; k < len / 2; ++k) {
        const Cplx u = a[i + k];
        const Cplx v = a[i + k + len / 2] * w;
        a[i + k] = u + v;
        a[i + k + len / 2] = u - v;
        w *= wl;
      }
    }
  }
  if (inverse) {
    const double inv_n = 1.0 / static_cast<double>(n);
    for (auto& x : a) x *= inv_n;
  }
}

}  // namespace

void fft(std::vector<Cplx>& data) { transform(data, /*inverse=*/false); }

void ifft(std::vector<Cplx>& data) { transform(data, /*inverse=*/true); }


namespace {

void bit_reverse_permute_q15(std::vector<CQ15>& a) {
  const std::size_t n = a.size();
  std::size_t j = 0;
  for (std::size_t i = 1; i < n; ++i) {
    std::size_t bit = n >> 1;
    for (; j & bit; bit >>= 1) j ^= bit;
    j ^= bit;
    if (i < j) std::swap(a[i], a[j]);
  }
}

/// Rounded arithmetic shift right by one with saturation to int16.
std::int16_t half_sat(std::int32_t v) {
  v = (v + 1) >> 1;
  if (v > 32767) v = 32767;
  if (v < -32768) v = -32768;
  return static_cast<std::int16_t>(v);
}

}  // namespace

void fft_q15(std::vector<CQ15>& data, bool inverse) {
  PDR_CHECK(is_pow2(data.size()), "dsp::fft_q15", "size must be a power of two");
  bit_reverse_permute_q15(data);
  const std::size_t n = data.size();
  for (std::size_t len = 2; len <= n; len <<= 1) {
    const double angle = (inverse ? 2.0 : -2.0) * kPi / static_cast<double>(len);
    for (std::size_t i = 0; i < n; i += len) {
      for (std::size_t k = 0; k < len / 2; ++k) {
        // Twiddle in Q15 (recomputed per butterfly: an FPGA would ROM it).
        const double ph = angle * static_cast<double>(k);
        const std::int32_t wr = Q15::from_double(std::cos(ph)).raw();
        const std::int32_t wi = Q15::from_double(std::sin(ph)).raw();
        CQ15& pa = data[i + k];
        CQ15& pb = data[i + k + len / 2];
        const std::int32_t ar = pa.re.raw(), ai = pa.im.raw();
        const std::int32_t br = pb.re.raw(), bi = pb.im.raw();
        // w * b in Q15 with rounding.
        const std::int32_t tr = static_cast<std::int32_t>((wr * br - wi * bi + (1 << 14)) >> 15);
        const std::int32_t ti = static_cast<std::int32_t>((wr * bi + wi * br + (1 << 14)) >> 15);
        // Butterfly with unconditional 1/2 scaling.
        pa.re = Q15::from_raw(half_sat(ar + tr));
        pa.im = Q15::from_raw(half_sat(ai + ti));
        pb.re = Q15::from_raw(half_sat(ar - tr));
        pb.im = Q15::from_raw(half_sat(ai - ti));
      }
    }
  }
}

std::vector<CQ15> to_q15(const std::vector<Cplx>& x) {
  std::vector<CQ15> out(x.size());
  for (std::size_t i = 0; i < x.size(); ++i)
    out[i] = CQ15{Q15::from_double(x[i].real()), Q15::from_double(x[i].imag())};
  return out;
}

std::vector<Cplx> from_q15(const std::vector<CQ15>& x) {
  std::vector<Cplx> out(x.size());
  for (std::size_t i = 0; i < x.size(); ++i) out[i] = {x[i].re.to_double(), x[i].im.to_double()};
  return out;
}

}  // namespace pdr::dsp
