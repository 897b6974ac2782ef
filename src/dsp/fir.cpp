#include "dsp/fir.hpp"

#include <cmath>

#include "util/error.hpp"

namespace pdr::dsp {
namespace {

constexpr double kPi = 3.14159265358979323846264338327950288;

double sinc(double x) { return x == 0.0 ? 1.0 : std::sin(kPi * x) / (kPi * x); }

}  // namespace

std::vector<double> lowpass_taps(std::size_t n_taps, double cutoff) {
  PDR_CHECK(n_taps >= 3 && n_taps % 2 == 1, "lowpass_taps", "need an odd tap count >= 3");
  PDR_CHECK(cutoff > 0.0 && cutoff < 0.5, "lowpass_taps", "cutoff must be in (0, 0.5)");
  std::vector<double> taps(n_taps);
  const double mid = static_cast<double>(n_taps - 1) / 2.0;
  double sum = 0.0;
  for (std::size_t i = 0; i < n_taps; ++i) {
    const double n = static_cast<double>(i) - mid;
    const double window =
        0.54 - 0.46 * std::cos(2.0 * kPi * static_cast<double>(i) / static_cast<double>(n_taps - 1));
    taps[i] = 2.0 * cutoff * sinc(2.0 * cutoff * n) * window;
    sum += taps[i];
  }
  for (auto& t : taps) t /= sum;  // unit DC gain
  return taps;
}

std::vector<double> highpass_taps(std::size_t n_taps, double cutoff) {
  std::vector<double> taps = lowpass_taps(n_taps, cutoff);
  // Spectral inversion: negate and add an impulse at the center.
  for (auto& t : taps) t = -t;
  taps[(n_taps - 1) / 2] += 1.0;
  return taps;
}

std::vector<double> fir_filter(std::span<const double> x, std::span<const double> taps) {
  PDR_CHECK(!taps.empty(), "fir_filter", "empty tap set");
  std::vector<double> y(x.size(), 0.0);
  for (std::size_t n = 0; n < x.size(); ++n) {
    double acc = 0.0;
    const std::size_t kmax = std::min(taps.size(), n + 1);
    for (std::size_t k = 0; k < kmax; ++k) acc += taps[k] * x[n - k];
    y[n] = acc;
  }
  return y;
}

}  // namespace pdr::dsp
