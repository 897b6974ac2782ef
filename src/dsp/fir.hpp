// FIR filter design (windowed sinc) and filtering.
//
// Used by the adaptive filter-bank example: dynamic regions swap FIR
// modules (low-pass vs high-pass) at run time; this is the signal
// processing those modules perform.
#pragma once

#include <span>
#include <vector>

namespace pdr::dsp {

/// Hamming-windowed sinc low-pass taps; `cutoff` is the normalized cutoff
/// in (0, 0.5) (fraction of the sample rate), `n_taps` odd for a
/// symmetric linear-phase filter. Taps are normalized to unit DC gain.
std::vector<double> lowpass_taps(std::size_t n_taps, double cutoff);

/// High-pass by spectral inversion of the low-pass design (unit gain at
/// Nyquist).
std::vector<double> highpass_taps(std::size_t n_taps, double cutoff);

/// Direct-form FIR filtering (zero initial state, output length equals
/// input length; group delay (n_taps-1)/2 samples).
std::vector<double> fir_filter(std::span<const double> x, std::span<const double> taps);

}  // namespace pdr::dsp
