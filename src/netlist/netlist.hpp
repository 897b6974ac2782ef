// Post-synthesis netlist model.
//
// The Modular Design flow synthesizes the static part and each dynamic
// module to separate netlists (paper §5). We model a netlist at the
// granularity the evaluation needs: aggregate primitive counts (4-input
// LUTs, flip-flops, BRAMs, MULT18s, TBUFs) plus the port list, with
// submodule provenance retained for reporting. Table 1 is resource
// arithmetic over exactly these counts; instance-level connectivity would
// not change any measured number, so we deliberately do not carry nets.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace pdr::netlist {

enum class PrimitiveKind : std::uint8_t { Lut4, FlipFlop, Bram18, Mult18, Tbuf, Iob };

enum class PortDir : std::uint8_t { In, Out };

/// One named port of a module.
struct Port {
  std::string name;
  int width = 1;
  PortDir dir = PortDir::In;
};

class Netlist {
 public:
  explicit Netlist(std::string name);

  const std::string& name() const { return name_; }

  // --- Ports -------------------------------------------------------------
  Netlist& add_port(std::string name, int width, PortDir dir);
  const std::vector<Port>& ports() const { return ports_; }
  /// Total input (resp. output) signal bits; drives bus-macro planning.
  int input_bits() const;
  int output_bits() const;

  // --- Primitives ----------------------------------------------------------
  Netlist& add(PrimitiveKind kind, int n = 1);
  int count(PrimitiveKind kind) const;

  /// Adds `times` copies of `sub`'s primitives (ports are NOT inherited;
  /// submodule connectivity is internal). Provenance is recorded in
  /// submodules().
  Netlist& instantiate(const Netlist& sub, int times = 1);

  /// Sum of all primitive counts.
  int total_primitives() const;

  /// Deterministic hash of name + counts + ports. The bitstream generator
  /// derives the synthetic frame payload from this, so two different
  /// netlists yield different configuration data (and identical netlists
  /// yield identical bitstreams).
  std::uint64_t content_hash() const;

  const std::vector<std::pair<std::string, int>>& submodules() const { return submodules_; }

 private:
  std::string name_;
  std::vector<Port> ports_;
  std::map<PrimitiveKind, int> counts_;
  std::vector<std::pair<std::string, int>> submodules_;
};

}  // namespace pdr::netlist
