// Pilot-based channel estimation.
//
// The case-study frames interleave pilot OFDM symbols with data (paper
// Figure 4's frame builder carries the pilot ROM). The receiver divides
// the received pilot by the known transmitted pattern to estimate the
// channel's per-subcarrier response, optionally smoothing across
// neighbouring subcarriers — replacing the genie channel knowledge the
// BER benches use.
#pragma once

#include <complex>
#include <span>
#include <vector>

#include "mccdma/params.hpp"

namespace pdr::mccdma {

using Cplx = std::complex<double>;

class ChannelEstimator {
 public:
  explicit ChannelEstimator(const McCdmaParams& params);

  /// The known pilot pattern: one BPSK chip (+-1) per subcarrier, drawn
  /// from a fixed PRBS so transmitter and receiver agree.
  const std::vector<Cplx>& pilot_chips() const { return pilot_chips_; }

  /// The pilot OFDM symbol's time-domain samples (with cyclic prefix).
  std::vector<Cplx> pilot_samples() const;

  /// Least-squares estimate from a received pilot symbol:
  /// H[k] = Y[k] / X[k].
  std::vector<Cplx> estimate(std::span<const Cplx> received_pilot) const;

  /// Moving-average smoothing over 2*half_window+1 adjacent subcarriers
  /// (wrapping); reduces noise on slowly varying channels.
  static std::vector<Cplx> smooth(std::span<const Cplx> h, int half_window);

 private:
  McCdmaParams params_;
  std::vector<Cplx> pilot_chips_;
};

}  // namespace pdr::mccdma
