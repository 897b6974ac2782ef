#include "netlist/netlist.hpp"

#include "util/error.hpp"

namespace pdr::netlist {

Netlist::Netlist(std::string name) : name_(std::move(name)) {
  PDR_CHECK(!name_.empty(), "Netlist", "module name must not be empty");
}

Netlist& Netlist::add_port(std::string name, int width, PortDir dir) {
  PDR_CHECK(width > 0, "Netlist::add_port", "port width must be positive");
  for (const auto& p : ports_)
    PDR_CHECK(p.name != name, "Netlist::add_port", "duplicate port '" + name + "'");
  ports_.push_back(Port{std::move(name), width, dir});
  return *this;
}

int Netlist::input_bits() const {
  int bits = 0;
  for (const auto& p : ports_)
    if (p.dir == PortDir::In) bits += p.width;
  return bits;
}

int Netlist::output_bits() const {
  int bits = 0;
  for (const auto& p : ports_)
    if (p.dir == PortDir::Out) bits += p.width;
  return bits;
}

Netlist& Netlist::add(PrimitiveKind kind, int n) {
  PDR_CHECK(n >= 0, "Netlist::add", "negative primitive count");
  counts_[kind] += n;
  return *this;
}

int Netlist::count(PrimitiveKind kind) const {
  const auto it = counts_.find(kind);
  return it == counts_.end() ? 0 : it->second;
}

Netlist& Netlist::instantiate(const Netlist& sub, int times) {
  PDR_CHECK(times >= 0, "Netlist::instantiate", "negative instance count");
  for (const auto& [kind, n] : sub.counts_) counts_[kind] += n * times;
  submodules_.emplace_back(sub.name(), times);
  return *this;
}

int Netlist::total_primitives() const {
  int total = 0;
  for (const auto& [kind, n] : counts_) total += n;
  return total;
}

std::uint64_t Netlist::content_hash() const {
  // FNV-1a over name, counts and ports.
  std::uint64_t h = 0xcbf29ce484222325ull;
  auto mix = [&h](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (i * 8)) & 0xffu;
      h *= 0x100000001b3ull;
    }
  };
  for (char c : name_) {
    h ^= static_cast<std::uint8_t>(c);
    h *= 0x100000001b3ull;
  }
  for (const auto& [kind, n] : counts_) {
    mix(static_cast<std::uint64_t>(kind));
    mix(static_cast<std::uint64_t>(n));
  }
  for (const auto& p : ports_) {
    for (char c : p.name) {
      h ^= static_cast<std::uint8_t>(c);
      h *= 0x100000001b3ull;
    }
    mix(static_cast<std::uint64_t>(p.width));
    mix(static_cast<std::uint64_t>(p.dir));
  }
  return h;
}

}  // namespace pdr::netlist
