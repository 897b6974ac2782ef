#include "dsp/convcode.hpp"

#include <bit>
#include <limits>

#include "util/error.hpp"

namespace pdr::dsp {

ConvolutionalCode::ConvolutionalCode(int constraint_length, std::vector<std::uint32_t> generators)
    : k_(constraint_length), generators_(std::move(generators)) {
  PDR_CHECK(k_ >= 2 && k_ <= 16, "ConvolutionalCode", "constraint length must be in [2, 16]");
  PDR_CHECK(!generators_.empty(), "ConvolutionalCode", "need at least one generator");
  const auto mask = (1u << k_) - 1;
  for (const auto g : generators_)
    PDR_CHECK(g != 0 && (g & ~mask) == 0, "ConvolutionalCode",
              "generator does not fit the constraint length");
}

ConvolutionalCode ConvolutionalCode::k7_rate_half() {
  // (133, 171) octal = 0b1011011, 0b1111001.
  return ConvolutionalCode(7, {0133, 0171});
}

std::uint32_t ConvolutionalCode::branch_output(int state, int bit) const {
  // Shift register contents: [input bit | state bits], input is LSB-first
  // in time: register = bit << (k-1) | state ... use the common
  // convention register = (bit, s_{k-2}, ..., s_0) with generators tapping
  // from the newest bit down.
  const std::uint32_t reg =
      (static_cast<std::uint32_t>(bit) << (k_ - 1)) | static_cast<std::uint32_t>(state);
  std::uint32_t out = 0;
  for (const auto g : generators_) {
    out = (out << 1) | (static_cast<std::uint32_t>(std::popcount(reg & g)) & 1u);
  }
  return out;
}

std::vector<std::uint8_t> ConvolutionalCode::encode(std::span<const std::uint8_t> bits) const {
  std::vector<std::uint8_t> out;
  out.reserve((bits.size() + static_cast<std::size_t>(k_ - 1)) * generators_.size());
  int state = 0;
  auto push = [&](int bit) {
    const std::uint32_t branch = branch_output(state, bit);
    for (std::size_t g = generators_.size(); g-- > 0;)
      out.push_back(static_cast<std::uint8_t>((branch >> g) & 1u));
    state = ((bit << (k_ - 1)) | state) >> 1;
  };
  for (const auto b : bits) push(b & 1);
  for (int i = 0; i < k_ - 1; ++i) push(0);  // trellis termination
  return out;
}

std::vector<std::uint8_t> ConvolutionalCode::decode(std::span<const std::uint8_t> coded) const {
  const std::size_t branch_bits = generators_.size();
  PDR_CHECK(coded.size() % branch_bits == 0, "ConvolutionalCode::decode",
            "codeword is not a whole number of branches");
  const std::size_t branches = coded.size() / branch_bits;
  PDR_CHECK(branches >= static_cast<std::size_t>(k_ - 1), "ConvolutionalCode::decode",
            "codeword shorter than the flush tail");

  const int n_states = states();
  constexpr std::uint32_t kInf = std::numeric_limits<std::uint32_t>::max() / 2;
  std::vector<std::uint32_t> metric(static_cast<std::size_t>(n_states), kInf);
  metric[0] = 0;  // encoder starts in state 0
  std::vector<std::uint32_t> next_metric(static_cast<std::size_t>(n_states));
  // survivors[t][state] = input bit 0/1 plus predecessor encoded together.
  std::vector<std::vector<std::uint16_t>> survivors(
      branches, std::vector<std::uint16_t>(static_cast<std::size_t>(n_states), 0));

  for (std::size_t t = 0; t < branches; ++t) {
    std::uint32_t received = 0;
    for (std::size_t g = 0; g < branch_bits; ++g)
      received = (received << 1) | (coded[t * branch_bits + g] & 1u);

    std::fill(next_metric.begin(), next_metric.end(), kInf);
    for (int state = 0; state < n_states; ++state) {
      if (metric[static_cast<std::size_t>(state)] >= kInf) continue;
      for (int bit = 0; bit <= 1; ++bit) {
        const std::uint32_t expect = branch_output(state, bit);
        const auto cost = static_cast<std::uint32_t>(std::popcount(expect ^ received));
        const int next = ((bit << (k_ - 1)) | state) >> 1;
        const std::uint32_t cand = metric[static_cast<std::size_t>(state)] + cost;
        if (cand < next_metric[static_cast<std::size_t>(next)]) {
          next_metric[static_cast<std::size_t>(next)] = cand;
          survivors[t][static_cast<std::size_t>(next)] =
              static_cast<std::uint16_t>((bit << 15) | state);
        }
      }
    }
    metric.swap(next_metric);
  }

  // Terminated trellis: trace back from state 0.
  std::vector<std::uint8_t> decoded(branches);
  int state = 0;
  for (std::size_t t = branches; t-- > 0;) {
    const std::uint16_t s = survivors[t][static_cast<std::size_t>(state)];
    decoded[t] = static_cast<std::uint8_t>((s >> 15) & 1);
    state = s & 0x7fff;
  }
  decoded.resize(branches - static_cast<std::size_t>(k_ - 1));  // strip flush bits
  return decoded;
}

}  // namespace pdr::dsp
