#include "mccdma/receiver.hpp"

#include <cmath>

#include "util/error.hpp"

namespace pdr::mccdma {

Receiver::Receiver(const McCdmaParams& params)
    : params_(params), modulator_(make_qpsk()), spreader_(params), ofdm_(params) {}

void Receiver::select_modulation(const std::string& name) { modulator_ = make_modulator(name); }

void Receiver::set_channel_response(std::vector<Cplx> h, Equalizer mode, double snr_db) {
  if (h.empty()) {
    equalizer_taps_.clear();
    return;
  }
  PDR_CHECK(h.size() == params_.n_subcarriers, "Receiver::set_channel_response",
            "response must cover every subcarrier");
  equalizer_taps_.resize(h.size());
  const double inv_snr = std::pow(10.0, -snr_db / 10.0);
  for (std::size_t k = 0; k < h.size(); ++k) {
    if (mode == Equalizer::Zf) {
      PDR_CHECK(std::abs(h[k]) > 1e-12, "Receiver::set_channel_response",
                "zero-forcing cannot invert a spectral null");
      equalizer_taps_[k] = 1.0 / h[k];
    } else {
      equalizer_taps_[k] = std::conj(h[k]) / (std::norm(h[k]) + inv_snr);
    }
  }
}

std::vector<Cplx> Receiver::equalized_chips(std::span<const Cplx> samples) const {
  std::vector<Cplx> chips = ofdm_.demodulate(samples);
  if (!equalizer_taps_.empty())
    for (std::size_t k = 0; k < chips.size(); ++k) chips[k] *= equalizer_taps_[k];
  return chips;
}

std::vector<std::vector<std::uint8_t>> Receiver::receive(std::span<const Cplx> samples) const {
  const std::vector<Cplx> chips = equalized_chips(samples);
  std::vector<std::vector<std::uint8_t>> out;
  out.reserve(params_.n_users);
  for (std::size_t u = 0; u < params_.n_users; ++u) {
    const std::vector<Cplx> symbols = spreader_.despread(chips, u);
    out.push_back(modulator_->demap(symbols));
  }
  return out;
}

void Receiver::measure(std::span<const Cplx> samples,
                       const std::vector<std::vector<std::uint8_t>>& sent,
                       BerReport& report) const {
  const auto received = receive(samples);
  PDR_CHECK(received.size() == sent.size(), "Receiver::measure", "user count mismatch");
  for (std::size_t u = 0; u < sent.size(); ++u) {
    PDR_CHECK(received[u].size() == sent[u].size(), "Receiver::measure", "bit count mismatch");
    for (std::size_t b = 0; b < sent[u].size(); ++b) {
      ++report.bits;
      if (received[u][b] != sent[u][b]) ++report.errors;
    }
  }
}

}  // namespace pdr::mccdma
