#include "mccdma/estimator.hpp"

#include "dsp/prbs.hpp"
#include "mccdma/ofdm.hpp"
#include "util/error.hpp"

namespace pdr::mccdma {

ChannelEstimator::ChannelEstimator(const McCdmaParams& params) : params_(params) {
  params_.validate();
  dsp::Prbs prbs(dsp::Prbs::Kind::Prbs15, 0x2f);
  pilot_chips_.reserve(params_.n_subcarriers);
  for (std::size_t k = 0; k < params_.n_subcarriers; ++k)
    pilot_chips_.push_back(Cplx{prbs.next_bit() ? -1.0 : 1.0, 0.0});
}

std::vector<Cplx> ChannelEstimator::pilot_samples() const {
  return OfdmModulator(params_).modulate(pilot_chips_);
}

std::vector<Cplx> ChannelEstimator::estimate(std::span<const Cplx> received_pilot) const {
  const std::vector<Cplx> chips = OfdmModulator(params_).demodulate(received_pilot);
  std::vector<Cplx> h(params_.n_subcarriers);
  for (std::size_t k = 0; k < h.size(); ++k) h[k] = chips[k] / pilot_chips_[k];
  return h;
}

std::vector<Cplx> ChannelEstimator::smooth(std::span<const Cplx> h, int half_window) {
  PDR_CHECK(half_window >= 0, "ChannelEstimator::smooth", "negative window");
  if (half_window == 0) return {h.begin(), h.end()};
  const auto n = static_cast<std::ptrdiff_t>(h.size());
  std::vector<Cplx> out(h.size());
  for (std::ptrdiff_t k = 0; k < n; ++k) {
    Cplx acc{0.0, 0.0};
    for (std::ptrdiff_t d = -half_window; d <= half_window; ++d)
      acc += h[static_cast<std::size_t>(((k + d) % n + n) % n)];
    out[static_cast<std::size_t>(k)] = acc / static_cast<double>(2 * half_window + 1);
  }
  return out;
}

}  // namespace pdr::mccdma
