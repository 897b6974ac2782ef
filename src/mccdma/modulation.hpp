// Constellation mappers: the dynamic modules of the case study.
//
// "Block modulation performs either a QPSK or QAM-16 modulation. This
// adaptive modulation is selected by the conditional entry Select which
// defines the modulation of each OFDM symbol according to the signal to
// noise ratio." (§6)
//
// All mappers are Gray-coded with unit average symbol energy, so the
// demapper's hard decisions give textbook AWGN bit-error rates — the
// property tests pin that down.
#pragma once

#include <complex>
#include <memory>
#include <span>
#include <string>
#include <vector>

namespace pdr::mccdma {

using Cplx = std::complex<double>;

class Modulator {
 public:
  virtual ~Modulator() = default;

  virtual const std::string& name() const = 0;
  virtual int bits_per_symbol() const = 0;

  /// Maps `bits` (size divisible by bits_per_symbol) to symbols.
  std::vector<Cplx> map(std::span<const std::uint8_t> bits) const;

  /// Hard-decision demap of one symbol.
  virtual void demap_symbol(Cplx symbol, std::vector<std::uint8_t>& bits_out) const = 0;

  /// Hard-decision demap of a symbol sequence.
  std::vector<std::uint8_t> demap(std::span<const Cplx> symbols) const;

 protected:
  virtual Cplx map_symbol(std::span<const std::uint8_t> bits) const = 0;
};

/// BPSK: 1 bit/symbol.
std::unique_ptr<Modulator> make_bpsk();
/// Gray QPSK: 2 bits/symbol.
std::unique_ptr<Modulator> make_qpsk();
/// Gray 16-QAM: 4 bits/symbol.
std::unique_ptr<Modulator> make_qam16();
/// Gray 64-QAM: 6 bits/symbol.
std::unique_ptr<Modulator> make_qam64();

/// Factory by module name ("bpsk", "qpsk", "qam16", "qam64").
std::unique_ptr<Modulator> make_modulator(const std::string& name);

/// Theoretical AWGN bit-error rate of a modulation at Eb/N0 (dB), for the
/// property tests (Gray-coded approximations).
double theoretical_ber(const std::string& name, double ebn0_db);

}  // namespace pdr::mccdma
