#include "mccdma/channel.hpp"

#include <algorithm>
#include <cmath>

#include "dsp/fft.hpp"
#include "util/error.hpp"

namespace pdr::mccdma {

std::vector<Cplx> AwgnChannel::apply(std::span<const Cplx> samples, double snr_db) {
  PDR_CHECK(!samples.empty(), "AwgnChannel::apply", "no samples");
  double power = 0.0;
  for (const Cplx& s : samples) power += std::norm(s);
  power /= static_cast<double>(samples.size());

  const double snr = std::pow(10.0, snr_db / 10.0);
  const double noise_power = power / snr;
  const double sigma = std::sqrt(noise_power / 2.0);  // per real dimension

  std::vector<Cplx> out;
  out.reserve(samples.size());
  for (const Cplx& s : samples)
    out.push_back(s + Cplx{sigma * rng_.normal(), sigma * rng_.normal()});
  return out;
}

MultipathChannel::MultipathChannel(std::vector<Cplx> taps, Rng rng)
    : taps_(std::move(taps)), awgn_(rng) {
  PDR_CHECK(!taps_.empty(), "MultipathChannel", "need at least one tap");
  memory_.assign(taps_.size() - 1, Cplx{0.0, 0.0});
}

std::vector<Cplx> MultipathChannel::exponential_profile(std::size_t n_taps, double decay,
                                                        Rng& rng) {
  PDR_CHECK(n_taps >= 1 && decay > 0, "MultipathChannel::exponential_profile", "bad profile");
  std::vector<Cplx> taps(n_taps);
  double total = 0;
  for (std::size_t l = 0; l < n_taps; ++l) {
    const double power = std::exp(-static_cast<double>(l) / decay);
    const double amp = std::sqrt(power / 2.0);
    taps[l] = {amp * rng.normal(), amp * rng.normal()};
    total += std::norm(taps[l]);
  }
  const double scale = 1.0 / std::sqrt(total);
  for (auto& t : taps) t *= scale;
  return taps;
}

std::vector<Cplx> MultipathChannel::apply(std::span<const Cplx> samples, double snr_db) {
  PDR_CHECK(!samples.empty(), "MultipathChannel::apply", "no samples");
  // Stateful FIR: prepend the retained tail of the previous call.
  std::vector<Cplx> extended(memory_.begin(), memory_.end());
  extended.insert(extended.end(), samples.begin(), samples.end());

  const std::size_t l = taps_.size();
  std::vector<Cplx> out(samples.size());
  for (std::size_t n = 0; n < samples.size(); ++n) {
    Cplx acc{0.0, 0.0};
    for (std::size_t k = 0; k < l; ++k) acc += taps_[k] * extended[n + (l - 1) - k];
    out[n] = acc;
  }
  if (l > 1) memory_.assign(extended.end() - static_cast<std::ptrdiff_t>(l - 1), extended.end());
  if (snr_db > 300.0) return out;
  return awgn_.apply(out, snr_db);
}

std::vector<Cplx> MultipathChannel::frequency_response(std::size_t n_fft) const {
  std::vector<Cplx> h(n_fft, Cplx{0.0, 0.0});
  for (std::size_t l = 0; l < taps_.size() && l < n_fft; ++l) h[l] = taps_[l];
  dsp::fft(h);
  return h;
}


SnrTrace::SnrTrace(Config config, Rng rng)
    : config_(config), rng_(rng), snr_db_(config.initial_db) {
  PDR_CHECK(config_.lo_db < config_.hi_db, "SnrTrace", "lo must be below hi");
  PDR_CHECK(config_.reversion >= 0.0 && config_.reversion <= 1.0, "SnrTrace",
            "reversion must be in [0, 1]");
}

double SnrTrace::step() {
  snr_db_ += config_.reversion * (config_.mean_db - snr_db_) + config_.sigma_db * rng_.normal();
  snr_db_ = std::clamp(snr_db_, config_.lo_db, config_.hi_db);
  return snr_db_;
}

}  // namespace pdr::mccdma
