// The MC-CDMA transmitter chain (paper Figure 4's datapath, bit-exact).
//
// Per OFDM symbol: per-user source bits -> constellation mapping (the
// runtime-reconfigurable block) -> Walsh spreading -> IFFT + cyclic
// prefix. The active modulation can be switched between symbols, exactly
// like the hardware's Op_Dyn region.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "dsp/prbs.hpp"
#include "mccdma/modulation.hpp"
#include "mccdma/ofdm.hpp"
#include "mccdma/spreading.hpp"

namespace pdr::mccdma {

/// Everything produced for one OFDM symbol.
struct TxSymbol {
  std::vector<std::vector<std::uint8_t>> user_bits;  ///< bits fed per user
  std::vector<Cplx> chips;                           ///< post-spreading subcarriers
  std::vector<Cplx> samples;                         ///< time-domain with CP
  std::string modulation;                            ///< mapper used
};

class Transmitter {
 public:
  explicit Transmitter(const McCdmaParams& params);

  /// Switches the active constellation mapper ("qpsk", "qam16", ...).
  void select_modulation(const std::string& name);

  /// Computes the IFFT in Q15 fixed point (the FPGA datapath's
  /// arithmetic) instead of double precision. Output samples are
  /// rescaled to the same unitary convention, so the two paths differ
  /// only by quantization noise (bounded in the tests).
  void set_fixed_point(bool on) { fixed_point_ = on; }
  bool fixed_point() const { return fixed_point_; }

  /// Bits consumed per user per OFDM symbol under the active modulation.
  std::size_t bits_per_user_symbol() const;

  /// Produces the next OFDM symbol from the internal PRBS sources.
  TxSymbol next_symbol();

  /// Produces one OFDM symbol from caller-supplied per-user bits.
  TxSymbol make_symbol(const std::vector<std::vector<std::uint8_t>>& user_bits) const;


 private:
  McCdmaParams params_;
  std::unique_ptr<Modulator> modulator_;
  Spreader spreader_;
  OfdmModulator ofdm_;
  std::vector<dsp::Prbs> sources_;  ///< one PRBS per user
  bool fixed_point_ = false;
};

}  // namespace pdr::mccdma
