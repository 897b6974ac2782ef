// Content fingerprints: the cache keys of the pipeline's ArtifactStore.
//
// A Fingerprint is a 64-bit FNV-1a hash accumulated over every input that
// feeds a stage — source text, parameter values, and the fingerprints of
// upstream stages. Two stage invocations with equal fingerprints are
// guaranteed (up to hash collisions) to have byte-identical inputs, so
// the store may serve the first invocation's artifact to the second.
//
// Mixing is order-sensitive and length-prefixed: mix("ab") then mix("c")
// differs from mix("a") then mix("bc"), so concatenation ambiguity cannot
// alias two distinct input sets onto one key.
#pragma once

#include <cstdint>
#include <span>
#include <string>

namespace pdr::flow {

class Fingerprint {
 public:
  /// Accumulates raw bytes (length-prefixed).
  Fingerprint& mix(std::span<const std::uint8_t> bytes);
  Fingerprint& mix(const std::string& s);
  Fingerprint& mix(std::uint64_t v);
  Fingerprint& mix(double v);
  Fingerprint& mix(bool v) { return mix(std::uint64_t{v ? 1u : 0u}); }
  /// Folds another fingerprint in (upstream-stage keys).
  Fingerprint& mix(const Fingerprint& other) { return mix(other.value_); }

  std::uint64_t value() const { return value_; }

 private:
  void mix_raw(const void* data, std::size_t n);

  std::uint64_t value_ = 14695981039346656037ull;  // FNV-1a offset basis
};

/// Fingerprint of a single string, for the common one-input case.
Fingerprint fingerprint_of(const std::string& s);

}  // namespace pdr::flow
