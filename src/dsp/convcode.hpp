// Convolutional coding: encoder + hard-decision Viterbi decoder.
//
// The case study's transmit chain carries a convolutional encoder block
// (paper Figure 4); the receive side of an SDR needs the matching
// decoder. Default code: the ubiquitous K=7, rate-1/2 code with
// generators (133, 171) octal — the one the cited MC-CDMA prototype [3]
// uses.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

namespace pdr::dsp {

class ConvolutionalCode {
 public:
  /// `constraint_length` K (memory = K-1), generator polynomials in
  /// binary (lowest bit = current input). Rate = 1 / generators.size().
  ConvolutionalCode(int constraint_length, std::vector<std::uint32_t> generators);

  /// The standard K=7 rate-1/2 (133, 171) code.
  static ConvolutionalCode k7_rate_half();

  int constraint_length() const { return k_; }
  std::size_t rate_denominator() const { return generators_.size(); }
  int states() const { return 1 << (k_ - 1); }

  /// Encodes `bits`, appending K-1 flush zeros so the trellis terminates
  /// in state 0. Output length = (bits.size() + K - 1) * generators.
  std::vector<std::uint8_t> encode(std::span<const std::uint8_t> bits) const;

  /// Hard-decision Viterbi decode of a terminated codeword; returns the
  /// information bits (flush bits stripped). Throws if the codeword
  /// length is not a whole number of branches or too short.
  std::vector<std::uint8_t> decode(std::span<const std::uint8_t> coded) const;

 private:
  /// Output bits of a branch from `state` with input `bit`.
  std::uint32_t branch_output(int state, int bit) const;

  int k_;
  std::vector<std::uint32_t> generators_;
};

}  // namespace pdr::dsp
