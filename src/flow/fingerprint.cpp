#include "flow/fingerprint.hpp"

#include <cstring>

namespace pdr::flow {

namespace {
constexpr std::uint64_t kFnvPrime = 1099511628211ull;
}

void Fingerprint::mix_raw(const void* data, std::size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    value_ ^= p[i];
    value_ *= kFnvPrime;
  }
}

Fingerprint& Fingerprint::mix(std::span<const std::uint8_t> bytes) {
  const std::uint64_t n = bytes.size();
  mix_raw(&n, sizeof n);
  mix_raw(bytes.data(), bytes.size());
  return *this;
}

Fingerprint& Fingerprint::mix(const std::string& s) {
  return mix(std::span(reinterpret_cast<const std::uint8_t*>(s.data()), s.size()));
}

Fingerprint& Fingerprint::mix(std::uint64_t v) {
  mix_raw(&v, sizeof v);
  return *this;
}

Fingerprint& Fingerprint::mix(double v) {
  std::uint64_t bits = 0;
  static_assert(sizeof bits == sizeof v);
  std::memcpy(&bits, &v, sizeof bits);
  return mix(bits);
}

Fingerprint fingerprint_of(const std::string& s) {
  Fingerprint fp;
  fp.mix(s);
  return fp;
}

}  // namespace pdr::flow
