// Channel models: AWGN plus the slowly-varying SNR process that drives
// adaptive modulation.
//
// The paper's hardware demo switched modulation "according to the signal
// to noise ratio" measured by the DSP; lacking a radio, we generate the
// SNR as a bounded Gauss-Markov random walk (first-order autoregressive),
// the standard surrogate for slow shadow fading.
#pragma once

#include <complex>
#include <span>
#include <vector>

#include "util/rng.hpp"
#include "util/units.hpp"

namespace pdr::mccdma {

using Cplx = std::complex<double>;

/// Additive white Gaussian noise at a target SNR (dB) relative to the
/// measured input power.
class AwgnChannel {
 public:
  explicit AwgnChannel(Rng rng) : rng_(rng) {}

  /// Returns samples + noise such that 10*log10(P_signal/P_noise) ~= snr_db.
  std::vector<Cplx> apply(std::span<const Cplx> samples, double snr_db);

 private:
  Rng rng_;
};

/// Frequency-selective multipath channel: an L-tap FIR with memory across
/// symbol boundaries (the cyclic prefix is what protects against the
/// resulting inter-symbol interference), followed by AWGN. This is the
/// channel MC-CDMA's frequency-domain spreading is designed for.
class MultipathChannel {
 public:
  /// `taps` is the complex impulse response (normalized or not).
  MultipathChannel(std::vector<Cplx> taps, Rng rng);

  /// Draws an L-tap exponentially-decaying random channel, normalized to
  /// unit total power: E|h_l|^2 = C * exp(-l / decay).
  static std::vector<Cplx> exponential_profile(std::size_t n_taps, double decay, Rng& rng);

  /// Convolves (stateful across calls) and adds noise at `snr_db`
  /// relative to the faded signal power. Pass +inf (or > 300) for a
  /// noiseless channel.
  std::vector<Cplx> apply(std::span<const Cplx> samples, double snr_db);

  /// Channel frequency response over `n_fft` bins (for the receiver's
  /// per-subcarrier equalizer).
  std::vector<Cplx> frequency_response(std::size_t n_fft) const;


 private:
  std::vector<Cplx> taps_;
  std::vector<Cplx> memory_;  ///< last L-1 input samples
  AwgnChannel awgn_;
};

/// Bounded AR(1) SNR trace: snr[k+1] = snr[k] + rho*(mean - snr[k]) + sigma*N(0,1),
/// clamped to [lo, hi].
class SnrTrace {
 public:
  struct Config {
    double initial_db = 12.0;
    double mean_db = 12.0;
    double reversion = 0.02;  ///< pull towards the mean per step
    double sigma_db = 0.35;   ///< innovation std-dev per step
    double lo_db = 0.0;
    double hi_db = 24.0;
  };

  SnrTrace(Config config, Rng rng);

  /// Current SNR (dB).
  double current() const { return snr_db_; }

  /// Advances one step and returns the new SNR.
  double step();

 private:
  Config config_;
  Rng rng_;
  double snr_db_;
};

}  // namespace pdr::mccdma
