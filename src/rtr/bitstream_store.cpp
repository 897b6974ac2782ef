#include "rtr/bitstream_store.hpp"

#include "util/error.hpp"

namespace pdr::rtr {

BitstreamStore::BitstreamStore(double bandwidth_bytes_per_s, TimeNs access_latency)
    : bandwidth_(bandwidth_bytes_per_s), latency_(access_latency) {
  PDR_CHECK(bandwidth_ > 0, "BitstreamStore", "bandwidth must be positive");
  PDR_CHECK(latency_ >= 0, "BitstreamStore", "latency must be non-negative");
}

void BitstreamStore::add(const std::string& module, std::vector<std::uint8_t> bitstream) {
  PDR_CHECK(!module.empty(), "BitstreamStore::add", "module name must not be empty");
  PDR_CHECK(!bitstream.empty(), "BitstreamStore::add", "empty bitstream for '" + module + "'");
  pristine_[module] = bitstream;  // golden copy: what repair() restores
  streams_[module] = std::move(bitstream);
}

void BitstreamStore::corrupt(const std::string& module, std::size_t byte_index,
                             std::uint8_t xor_mask) {
  const auto it = streams_.find(module);
  PDR_CHECK(it != streams_.end(), "BitstreamStore::corrupt",
            "no bitstream for module '" + module + "'");
  PDR_CHECK(byte_index < it->second.size(), "BitstreamStore::corrupt",
            "byte index out of range for '" + module + "'");
  PDR_CHECK(xor_mask != 0, "BitstreamStore::corrupt", "xor mask must flip at least one bit");
  it->second[byte_index] ^= xor_mask;
}

void BitstreamStore::repair(const std::string& module) {
  const auto it = streams_.find(module);
  PDR_CHECK(it != streams_.end(), "BitstreamStore::repair",
            "no bitstream for module '" + module + "'");
  const auto& golden = pristine_.at(module);
  if (it->second == golden) return;  // undamaged — nothing to restore
  it->second = golden;
}

bool BitstreamStore::contains(const std::string& module) const { return streams_.count(module) > 0; }

std::span<const std::uint8_t> BitstreamStore::get(const std::string& module) const {
  const auto it = streams_.find(module);
  PDR_CHECK(it != streams_.end(), "BitstreamStore::get", "no bitstream for module '" + module + "'");
  return it->second;
}

Bytes BitstreamStore::size_of(const std::string& module) const { return get(module).size(); }

TimeNs BitstreamStore::fetch_time(const std::string& module) const {
  return latency_ + transfer_time_ns(size_of(module), bandwidth_);
}

Bytes BitstreamStore::total_bytes() const {
  Bytes total = 0;
  for (const auto& [name, s] : streams_) total += s.size();
  return total;
}

}  // namespace pdr::rtr
