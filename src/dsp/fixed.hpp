// Q15 fixed-point arithmetic.
//
// The MC-CDMA hardware blocks the paper targets compute in fixed point on
// the FPGA; the transmitter chain here mirrors that with a saturating Q15
// type (1 sign bit, 15 fractional bits, range [-1, 1)).
#pragma once

#include <cstdint>
#include <limits>

namespace pdr::dsp {

/// Saturating Q15 fixed-point number.
class Q15 {
 public:
  constexpr Q15() = default;

  /// From raw two's-complement Q15 storage.
  static constexpr Q15 from_raw(std::int16_t raw) {
    Q15 q;
    q.raw_ = raw;
    return q;
  }

  /// From a real value, saturating to [-1, 1 - 2^-15].
  static constexpr Q15 from_double(double v) {
    constexpr double kScale = 32768.0;
    double scaled = v * kScale;
    if (scaled >= 32767.0) return from_raw(32767);
    if (scaled <= -32768.0) return from_raw(-32768);
    // Round to nearest, ties away from zero.
    const auto r = static_cast<std::int32_t>(scaled >= 0 ? scaled + 0.5 : scaled - 0.5);
    return from_raw(static_cast<std::int16_t>(r));
  }

  constexpr std::int16_t raw() const { return raw_; }
  constexpr double to_double() const { return static_cast<double>(raw_) / 32768.0; }

  friend constexpr Q15 operator+(Q15 a, Q15 b) {
    return saturate(static_cast<std::int32_t>(a.raw_) + b.raw_);
  }
  friend constexpr Q15 operator-(Q15 a, Q15 b) {
    return saturate(static_cast<std::int32_t>(a.raw_) - b.raw_);
  }
  friend constexpr Q15 operator*(Q15 a, Q15 b) {
    // Q15 * Q15 = Q30; shift back with rounding.
    const std::int32_t p = static_cast<std::int32_t>(a.raw_) * b.raw_;
    return saturate((p + (1 << 14)) >> 15);
  }
  friend constexpr Q15 operator-(Q15 a) { return saturate(-static_cast<std::int32_t>(a.raw_)); }

 private:
  static constexpr Q15 saturate(std::int32_t v) {
    if (v > 32767) v = 32767;
    if (v < -32768) v = -32768;
    return from_raw(static_cast<std::int16_t>(v));
  }

  std::int16_t raw_ = 0;
};

/// Complex Q15 sample, as produced by the fixed-point mappers.
struct CQ15 {
  Q15 re;
  Q15 im;

  friend constexpr CQ15 operator*(CQ15 a, CQ15 b) {
    return {a.re * b.re - a.im * b.im, a.re * b.im + a.im * b.re};
  }
};

}  // namespace pdr::dsp
