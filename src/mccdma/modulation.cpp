#include "mccdma/modulation.hpp"

#include <cmath>

#include "util/error.hpp"

namespace pdr::mccdma {
namespace {

double q_function(double x) { return 0.5 * std::erfc(x / std::sqrt(2.0)); }

/// Gray PAM levels for 2^bits levels, unit average energy per axis pair.
/// E.g. 4 levels: {-3,-1,+1,+3} scaled.
std::vector<double> gray_levels(int bits_per_axis) {
  const int levels = 1 << bits_per_axis;
  std::vector<double> out(static_cast<std::size_t>(levels));
  for (int i = 0; i < levels; ++i) out[static_cast<std::size_t>(i)] = 2 * i - (levels - 1);
  return out;
}

/// Index -> Gray code, and the inverse lookup for mapping bits to levels.
int gray_of(int i) { return i ^ (i >> 1); }

/// Square-QAM with `bits_per_axis` Gray bits per axis (1 => QPSK).
class SquareQam final : public Modulator {
 public:
  SquareQam(std::string name, int bits_per_axis) : name_(std::move(name)), bits_axis_(bits_per_axis) {
    const auto raw = gray_levels(bits_axis_);
    // Normalize to unit average symbol energy: E = 2 * mean(level^2).
    double e = 0;
    for (double v : raw) e += v * v;
    e = 2.0 * e / static_cast<double>(raw.size());
    scale_ = 1.0 / std::sqrt(e);
    // level_of_gray_[g] = amplitude whose Gray code is g.
    level_of_gray_.resize(raw.size());
    for (std::size_t i = 0; i < raw.size(); ++i)
      level_of_gray_[static_cast<std::size_t>(gray_of(static_cast<int>(i)))] = raw[i] * scale_;
  }

  const std::string& name() const override { return name_; }
  int bits_per_symbol() const override { return 2 * bits_axis_; }

  void demap_symbol(Cplx symbol, std::vector<std::uint8_t>& bits_out) const override {
    demap_axis(symbol.real(), bits_out);
    demap_axis(symbol.imag(), bits_out);
  }

 protected:
  Cplx map_symbol(std::span<const std::uint8_t> bits) const override {
    return {axis(bits.subspan(0, static_cast<std::size_t>(bits_axis_))),
            axis(bits.subspan(static_cast<std::size_t>(bits_axis_)))};
  }

 private:
  double axis(std::span<const std::uint8_t> bits) const {
    int gray = 0;
    for (int b = 0; b < bits_axis_; ++b) gray = (gray << 1) | (bits[static_cast<std::size_t>(b)] & 1);
    return level_of_gray_[static_cast<std::size_t>(gray)];
  }

  void demap_axis(double value, std::vector<std::uint8_t>& bits_out) const {
    // Nearest level, then its Gray code MSB-first.
    const int levels = 1 << bits_axis_;
    const double unscaled = value / scale_;
    int index = static_cast<int>(std::lround((unscaled + (levels - 1)) / 2.0));
    index = std::max(0, std::min(levels - 1, index));
    const int gray = gray_of(index);
    for (int b = bits_axis_ - 1; b >= 0; --b)
      bits_out.push_back(static_cast<std::uint8_t>((gray >> b) & 1));
  }

  std::string name_;
  int bits_axis_;
  double scale_ = 1.0;
  std::vector<double> level_of_gray_;
};

/// BPSK lives on the real axis only.
class Bpsk final : public Modulator {
 public:
  const std::string& name() const override { return name_; }
  int bits_per_symbol() const override { return 1; }

  void demap_symbol(Cplx symbol, std::vector<std::uint8_t>& bits_out) const override {
    bits_out.push_back(symbol.real() >= 0 ? 0 : 1);
  }

 protected:
  Cplx map_symbol(std::span<const std::uint8_t> bits) const override {
    return {bits[0] ? -1.0 : 1.0, 0.0};
  }

 private:
  std::string name_ = "bpsk";
};

}  // namespace

std::vector<Cplx> Modulator::map(std::span<const std::uint8_t> bits) const {
  const auto k = static_cast<std::size_t>(bits_per_symbol());
  PDR_CHECK(bits.size() % k == 0, "Modulator::map",
            "bit count not divisible by bits_per_symbol of " + name());
  std::vector<Cplx> out;
  out.reserve(bits.size() / k);
  for (std::size_t i = 0; i < bits.size(); i += k) out.push_back(map_symbol(bits.subspan(i, k)));
  return out;
}

std::vector<std::uint8_t> Modulator::demap(std::span<const Cplx> symbols) const {
  std::vector<std::uint8_t> out;
  out.reserve(symbols.size() * static_cast<std::size_t>(bits_per_symbol()));
  for (const Cplx& s : symbols) demap_symbol(s, out);
  return out;
}

std::unique_ptr<Modulator> make_bpsk() { return std::make_unique<Bpsk>(); }
std::unique_ptr<Modulator> make_qpsk() { return std::make_unique<SquareQam>("qpsk", 1); }
std::unique_ptr<Modulator> make_qam16() { return std::make_unique<SquareQam>("qam16", 2); }
std::unique_ptr<Modulator> make_qam64() { return std::make_unique<SquareQam>("qam64", 3); }

std::unique_ptr<Modulator> make_modulator(const std::string& name) {
  if (name == "bpsk") return make_bpsk();
  if (name == "qpsk") return make_qpsk();
  if (name == "qam16") return make_qam16();
  if (name == "qam64") return make_qam64();
  raise("make_modulator", "unknown modulation '" + name + "'");
}

double theoretical_ber(const std::string& name, double ebn0_db) {
  const double ebn0 = std::pow(10.0, ebn0_db / 10.0);
  if (name == "bpsk" || name == "qpsk") return q_function(std::sqrt(2.0 * ebn0));
  if (name == "qam16") {
    // Gray 16-QAM approximation: (3/4) Q(sqrt(4/5 Eb/N0)).
    return 0.75 * q_function(std::sqrt(0.8 * ebn0));
  }
  if (name == "qam64") {
    // Gray square M-QAM approximation with M=64:
    // (4/log2 M)(1 - 1/sqrt M) Q(sqrt(3 log2(M) Eb/N0 / (M-1))).
    return (7.0 / 12.0) * q_function(std::sqrt(18.0 / 63.0 * ebn0));
  }
  raise("theoretical_ber", "unknown modulation '" + name + "'");
}

}  // namespace pdr::mccdma
