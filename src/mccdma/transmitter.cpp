#include "mccdma/transmitter.hpp"

#include <cmath>

#include "dsp/fft.hpp"
#include "util/error.hpp"

namespace pdr::mccdma {

Transmitter::Transmitter(const McCdmaParams& params)
    : params_(params), modulator_(make_qpsk()), spreader_(params), ofdm_(params) {
  params_.validate();
  for (std::size_t u = 0; u < params_.n_users; ++u)
    sources_.emplace_back(dsp::Prbs::Kind::Prbs23, static_cast<std::uint32_t>(u + 1));
}

void Transmitter::select_modulation(const std::string& name) { modulator_ = make_modulator(name); }

std::size_t Transmitter::bits_per_user_symbol() const {
  return params_.symbols_per_user() * static_cast<std::size_t>(modulator_->bits_per_symbol());
}

TxSymbol Transmitter::next_symbol() {
  std::vector<std::vector<std::uint8_t>> user_bits;
  user_bits.reserve(params_.n_users);
  for (std::size_t u = 0; u < params_.n_users; ++u)
    user_bits.push_back(sources_[u].bits(bits_per_user_symbol()));
  return make_symbol(user_bits);
}

TxSymbol Transmitter::make_symbol(const std::vector<std::vector<std::uint8_t>>& user_bits) const {
  PDR_CHECK(user_bits.size() == params_.n_users, "Transmitter::make_symbol", "user count mismatch");
  TxSymbol out;
  out.user_bits = user_bits;
  out.modulation = modulator_->name();

  std::vector<std::vector<Cplx>> user_symbols;
  user_symbols.reserve(params_.n_users);
  for (const auto& bits : user_bits) {
    PDR_CHECK(bits.size() == bits_per_user_symbol(), "Transmitter::make_symbol",
              "bit count mismatch for active modulation");
    user_symbols.push_back(modulator_->map(bits));
  }
  out.chips = spreader_.spread(user_symbols);
  if (!fixed_point_) {
    out.samples = ofdm_.modulate(out.chips);
    return out;
  }

  // Q15 datapath: chips scaled into the [-1, 1) range (multi-user sums
  // can reach sqrt(users) * max-constellation-amplitude, so the datapath
  // applies input headroom exactly like a hardware implementation),
  // IFFT in fixed point (1/N scaling), rescaled back to the unitary
  // 1/sqrt(N) convention, cyclic prefix added.
  const double headroom = std::sqrt(static_cast<double>(params_.n_users)) * 1.25;
  std::vector<Cplx> scaled = out.chips;
  for (auto& c : scaled) c /= headroom;
  std::vector<dsp::CQ15> q = dsp::to_q15(scaled);
  dsp::fft_q15(q, /*inverse=*/true);
  std::vector<Cplx> body = dsp::from_q15(q);
  const double unitary = headroom * std::sqrt(static_cast<double>(params_.n_subcarriers));
  for (auto& s : body) s *= unitary;
  out.samples.reserve(params_.samples_per_symbol());
  out.samples.assign(body.end() - static_cast<std::ptrdiff_t>(params_.cyclic_prefix), body.end());
  out.samples.insert(out.samples.end(), body.begin(), body.end());
  return out;
}

}  // namespace pdr::mccdma
