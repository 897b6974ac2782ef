#include "synth/elaborate.hpp"

#include "netlist/library.hpp"
#include "util/error.hpp"

namespace pdr::synth {

using netlist::Netlist;
using netlist::PortDir;
using netlist::PrimitiveKind;

namespace {

int param(const Params& params, const std::string& key, int fallback) {
  const auto it = params.find(key);
  return it == params.end() ? fallback : it->second;
}

int require_positive(const Params& params, const std::string& key, int fallback,
                     const std::string& kind) {
  const int v = param(params, key, fallback);
  PDR_CHECK(v > 0, "elaborate_operator", "parameter '" + key + "' of '" + kind + "' must be positive");
  return v;
}

Netlist qam_mapper(const std::string& name, int bits_per_symbol) {
  // Gray constellation mapper: bit gather shift register, per-axis Gray
  // decode and level selection, I/Q level ROMs, output registers. Logic
  // grows with bits/symbol (wider gather, bigger level mux trees), which
  // is what separates the QPSK and QAM-16 rows of Table 1.
  Netlist n(name);
  n.add_port("bits_in", bits_per_symbol, PortDir::In);
  n.add_port("i_out", 16, PortDir::Out);
  n.add_port("q_out", 16, PortDir::Out);
  n.add_port("valid", 1, PortDir::Out);
  n.instantiate(netlist::make_shift_register(1, bits_per_symbol));
  const int levels = 1 << ((bits_per_symbol + 1) / 2);  // amplitude levels per axis
  n.instantiate(netlist::make_rom(levels, 16), 2);      // I and Q level tables
  n.instantiate(netlist::make_mux(16, levels), 2);      // level selection per axis
  n.add(PrimitiveKind::Lut4, 6 * bits_per_symbol);      // Gray decode + packing
  n.add(PrimitiveKind::FlipFlop, 2 * bits_per_symbol);  // gather stage
  n.instantiate(netlist::make_register(16), 2);
  n.instantiate(netlist::make_fsm(4, 2, 3));            // symbol pacing
  return n;
}

}  // namespace

Netlist elaborate_operator(const std::string& kind, const Params& params) {
  if (kind == "bit_source") {
    const int width = require_positive(params, "width", 8, kind);
    Netlist n("bit_source");
    n.add_port("bits", width, PortDir::Out);
    n.instantiate(netlist::make_shift_register(1, 23));  // PRBS23 LFSR
    n.add(PrimitiveKind::Lut4, 2);                       // feedback taps
    n.instantiate(netlist::make_register(width));
    return n;
  }
  if (kind == "scrambler") {
    const int width = require_positive(params, "width", 8, kind);
    Netlist n("scrambler");
    n.add_port("din", width, PortDir::In).add_port("dout", width, PortDir::Out);
    n.instantiate(netlist::make_shift_register(1, 15));
    n.add(PrimitiveKind::Lut4, width);  // XOR plane
    n.instantiate(netlist::make_register(width));
    return n;
  }
  if (kind == "conv_encoder") {
    const int k = require_positive(params, "k", 7, kind);
    Netlist n("conv_encoder");
    n.add_port("din", 1, PortDir::In).add_port("dout", 2, PortDir::Out);
    n.instantiate(netlist::make_shift_register(1, k));
    n.add(PrimitiveKind::Lut4, 2 * ((k + 3) / 4));  // generator XOR trees
    n.instantiate(netlist::make_register(2));
    return n;
  }
  if (kind == "interleaver") {
    const int depth = require_positive(params, "depth", 512, kind);
    const int width = require_positive(params, "width", 8, kind);
    Netlist n("interleaver");
    n.add_port("din", width, PortDir::In).add_port("dout", width, PortDir::Out);
    n.instantiate(netlist::make_ping_pong_buffer(depth, width));
    n.instantiate(netlist::make_counter(netlist::clog2(depth)));
    n.instantiate(netlist::make_rom(depth, netlist::clog2(depth)));  // permutation table
    return n;
  }
  if (kind == "bpsk_mapper") return qam_mapper("bpsk_mapper", 1);
  if (kind == "qpsk_mapper") return qam_mapper("qpsk_mapper", 2);
  if (kind == "qam16_mapper") return qam_mapper("qam16_mapper", 4);
  if (kind == "qam64_mapper") return qam_mapper("qam64_mapper", 6);
  if (kind == "walsh_spreader") {
    const int sf = require_positive(params, "sf", 16, kind);
    const int users = require_positive(params, "users", 1, kind);
    Netlist n("walsh_spreader");
    n.add_port("sym_in", 32, PortDir::In).add_port("chips_out", 32, PortDir::Out);
    n.instantiate(netlist::make_rom(sf, sf));  // Walsh code table
    n.instantiate(netlist::make_counter(netlist::clog2(sf)));
    // Per-user chip accumulate (sign flip + add) on I and Q.
    n.instantiate(netlist::make_adder(16), 2 * users);
    n.instantiate(netlist::make_register(32));
    return n;
  }
  if (kind == "ifft") {
    const int size = require_positive(params, "n", 64, kind);
    const int width = require_positive(params, "width", 16, kind);
    PDR_CHECK((size & (size - 1)) == 0, "elaborate_operator", "ifft size must be a power of two");
    Netlist n("ifft");
    n.add_port("din", 2 * width, PortDir::In).add_port("dout", 2 * width, PortDir::Out);
    // Radix-2 pipeline: log2(n) butterfly stages, each with a complex
    // multiplier (4 real mults), twiddle ROM and a delay line.
    const int stages = netlist::clog2(size);
    for (int s = 0; s < stages; ++s) {
      n.instantiate(netlist::make_multiplier(width), 4);
      n.instantiate(netlist::make_adder(width), 6);
      n.instantiate(netlist::make_rom(size / 2, 2 * width));
      n.instantiate(netlist::make_shift_register(2 * width, 1 << s));
    }
    n.instantiate(netlist::make_fsm(8, 2, 4));
    return n;
  }
  if (kind == "cyclic_prefix") {
    const int size = require_positive(params, "n", 64, kind);
    const int cp = require_positive(params, "cp", 16, kind);
    const int width = require_positive(params, "width", 16, kind);
    PDR_CHECK(cp < size, "elaborate_operator", "cyclic prefix must be shorter than the symbol");
    Netlist n("cyclic_prefix");
    n.add_port("din", 2 * width, PortDir::In).add_port("dout", 2 * width, PortDir::Out);
    n.instantiate(netlist::make_ping_pong_buffer(size + cp, 2 * width));
    n.instantiate(netlist::make_counter(netlist::clog2(size + cp)));
    return n;
  }
  if (kind == "frame_builder") {
    const int size = require_positive(params, "n", 64, kind);
    const int width = require_positive(params, "width", 16, kind);
    Netlist n("frame_builder");
    n.add_port("din", 2 * width, PortDir::In).add_port("dout", 2 * width, PortDir::Out);
    n.instantiate(netlist::make_rom(size, 2 * width));  // pilot symbols
    n.instantiate(netlist::make_mux(2 * width, 2));
    n.instantiate(netlist::make_fsm(6, 3, 4));
    return n;
  }
  if (kind == "interface_in_out") {
    const int width = require_positive(params, "width", 32, kind);
    Netlist n("interface_in_out");
    n.add_port("shb_in", width, PortDir::In).add_port("shb_out", width, PortDir::Out);
    n.add_port("select", 4, PortDir::In);     // modulation select from the DSP
    n.add_port("in_reconf", 1, PortDir::In);  // lock-up during reconfiguration (paper Fig. 4)
    n.instantiate(netlist::make_fifo(64, width), 2);
    n.instantiate(netlist::make_fsm(6, 4, 6));
    n.instantiate(netlist::make_register(width), 2);
    return n;
  }
  if (kind == "config_manager") {
    // Configuration manager (paper §5): request queue, loaded-module
    // table, state machine issuing configuration requests.
    Netlist n("config_manager");
    n.add_port("req", 8, PortDir::In).add_port("grant", 1, PortDir::Out);
    n.add_port("module_id", 8, PortDir::Out).add_port("busy", 1, PortDir::Out);
    n.instantiate(netlist::make_fifo(8, 16));
    n.instantiate(netlist::make_register(8), 4);
    n.instantiate(netlist::make_fsm(8, 4, 6));
    n.instantiate(netlist::make_comparator(8), 2);
    return n;
  }
  if (kind == "protocol_builder") {
    // Protocol configuration builder (paper §5): addresses external
    // bitstream memory, frames the stream, drives ICAP/SelectMAP, checks
    // CRC.
    Netlist n("protocol_builder");
    n.add_port("module_id", 8, PortDir::In).add_port("start", 1, PortDir::In);
    n.add_port("mem_addr", 24, PortDir::Out).add_port("mem_data", 32, PortDir::In);
    n.add_port("cfg_data", 8, PortDir::Out).add_port("cfg_wr", 1, PortDir::Out);
    n.add_port("done", 1, PortDir::Out);
    n.instantiate(netlist::make_counter(24));  // memory address counter
    n.instantiate(netlist::make_counter(16));  // word counter
    n.instantiate(netlist::make_rom(64, 32));  // per-module stream directory
    n.instantiate(netlist::make_fsm(12, 4, 8));
    n.instantiate(netlist::make_shift_register(8, 4));
    n.add(PrimitiveKind::Lut4, 32);  // CRC32 update network
    n.instantiate(netlist::make_register(32));
    return n;
  }
  if (kind == "fir") {
    const int taps = require_positive(params, "taps", 16, kind);
    const int width = require_positive(params, "width", 16, kind);
    Netlist n("fir");
    n.add_port("din", width, PortDir::In).add_port("dout", width, PortDir::Out);
    n.instantiate(netlist::make_multiplier(width), taps);
    n.instantiate(netlist::make_adder(width), taps - 1);
    n.instantiate(netlist::make_shift_register(width, taps));
    return n;
  }
  if (kind == "custom") {
    Netlist n("custom");
    const int in_bits = require_positive(params, "in_bits", 8, kind);
    const int out_bits = require_positive(params, "out_bits", 8, kind);
    n.add_port("din", in_bits, PortDir::In).add_port("dout", out_bits, PortDir::Out);
    n.add(PrimitiveKind::Lut4, require_positive(params, "luts", 16, kind));
    n.add(PrimitiveKind::FlipFlop, require_positive(params, "ffs", 16, kind));
    n.add(PrimitiveKind::Bram18, param(params, "brams", 0));
    n.add(PrimitiveKind::Mult18, param(params, "mults", 0));
    return n;
  }
  raise("elaborate_operator", "unknown operator kind '" + kind + "'");
}

netlist::Netlist wrap_executive(const netlist::Netlist& datapath) {
  Netlist n(datapath.name() + "_exec");
  // Ports: the wrapped module keeps the datapath's I/O plus the executive
  // handshake and the reconfiguration lock-up signal.
  for (const auto& p : datapath.ports()) n.add_port(p.name, p.width, p.dir);
  n.add_port("hs_req", 1, PortDir::In);
  n.add_port("hs_ack", 1, PortDir::Out);
  n.add_port("in_reconf", 1, PortDir::In);
  n.instantiate(datapath);
  // Generic executive structure (matches generate_vhdl_entity's four
  // processes): sequencer FSMs, staging FIFOs (SRL-based — regions need
  // not contain BRAM columns), handshake/phase registers.
  n.instantiate(netlist::make_fsm(8, 4, 8));   // communication sequencer
  n.instantiate(netlist::make_fsm(4, 2, 4));   // computation sequencer
  n.instantiate(netlist::make_fifo(32, 32), 2);  // input/output staging
  n.instantiate(netlist::make_register(32), 2);  // handshake data registers
  n.instantiate(netlist::make_counter(6));       // buffer phase control
  return n;
}

std::vector<std::string> known_operator_kinds() {
  return {"bit_source",    "scrambler",        "conv_encoder",   "interleaver",
          "bpsk_mapper",   "qpsk_mapper",      "qam16_mapper",   "qam64_mapper",
          "walsh_spreader", "ifft",            "cyclic_prefix",  "frame_builder",
          "interface_in_out", "config_manager", "protocol_builder", "fir",
          "custom"};
}

}  // namespace pdr::synth
