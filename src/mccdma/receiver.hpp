// Reference MC-CDMA receiver + error counting.
//
// Used by tests and benches to prove the transmitter chain is real: CP
// removal, FFT, despreading, hard-decision demapping, bit-error counting
// against the transmitted bits.
#pragma once

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "mccdma/ofdm.hpp"
#include "mccdma/spreading.hpp"
#include "mccdma/transmitter.hpp"

namespace pdr::mccdma {

struct BerReport {
  std::uint64_t bits = 0;
  std::uint64_t errors = 0;
  double ber() const { return bits == 0 ? 0.0 : static_cast<double>(errors) / static_cast<double>(bits); }
};

class Receiver {
 public:
  explicit Receiver(const McCdmaParams& params);

  void select_modulation(const std::string& name);

  /// Per-subcarrier equalizer flavours. ZF inverts the channel exactly
  /// (noise-enhancing on faded bins); MMSE weights by
  /// conj(H) / (|H|^2 + 1/snr), trading residual bias against noise
  /// enhancement — the better detector at low SNR.
  enum class Equalizer : std::uint8_t { Zf, Mmse };

  /// Installs a per-subcarrier channel frequency response; subsequent
  /// receive()/measure() calls equalize before despreading. Pass an
  /// empty vector to clear. Zero bins are rejected for ZF (it cannot
  /// invert a spectral null); MMSE tolerates them.
  void set_channel_response(std::vector<Cplx> h, Equalizer mode = Equalizer::Zf,
                            double snr_db = 20.0);

  /// Demodulates one OFDM symbol's time samples back to per-user bits.
  std::vector<std::vector<std::uint8_t>> receive(std::span<const Cplx> samples) const;

  /// Receives `samples` and accumulates errors vs `sent` into `report`.
  void measure(std::span<const Cplx> samples,
               const std::vector<std::vector<std::uint8_t>>& sent, BerReport& report) const;

 private:
  /// OFDM demod + optional ZF equalization.
  std::vector<Cplx> equalized_chips(std::span<const Cplx> samples) const;

  McCdmaParams params_;
  std::unique_ptr<Modulator> modulator_;
  Spreader spreader_;
  OfdmModulator ofdm_;
  std::vector<Cplx> equalizer_taps_;  ///< per-subcarrier weights; empty = off
};

}  // namespace pdr::mccdma
