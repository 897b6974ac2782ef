// Operator elaboration: algorithm-graph operation kinds -> netlists.
//
// This is the "synthesize the VHDL of each module separately" step of the
// paper's flow (§5), with the VHDL stage replaced by direct elaboration
// into the pdr::netlist block library. Every operator the MC-CDMA case
// study uses (paper Figure 4) has an entry, plus the infrastructure
// modules the generated design needs (interface, configuration manager,
// protocol builder).
#pragma once

#include <map>
#include <string>
#include <vector>

#include "netlist/netlist.hpp"

namespace pdr::synth {

/// Integer parameters of an operator instance (e.g. {"n", 64} for ifft).
using Params = std::map<std::string, int>;

/// Returns the netlist of one operator kind.
///
/// Supported kinds (parameters in brackets, with defaults):
///   bit_source        [width=8]           PRBS generator
///   scrambler         [width=8]
///   conv_encoder      [k=7]               convolutional encoder
///   interleaver       [depth=512, width=8]
///   qpsk_mapper       []                  2 bits/symbol Gray mapper
///   qam16_mapper      []                  4 bits/symbol Gray mapper
///   qam64_mapper      []                  6 bits/symbol Gray mapper
///   bpsk_mapper       []                  1 bit/symbol
///   walsh_spreader    [sf=16, users=1]
///   ifft              [n=64, width=16]
///   cyclic_prefix     [n=64, cp=16, width=16]
///   frame_builder     [n=64, width=16]
///   interface_in_out  [width=32]          host/DSP interface (paper Fig. 4)
///   config_manager    []                  reconfiguration request manager
///   protocol_builder  []                  bitstream protocol builder + memory addressing
///   fir               [taps=16, width=16]
///   custom            [luts, ffs, brams=0, mults=0, in_bits=8, out_bits=8]
///
/// Throws pdr::Error for unknown kinds or out-of-range parameters.
netlist::Netlist elaborate_operator(const std::string& kind, const Params& params = {});

/// All kinds elaborate_operator accepts (for tests and tools).
std::vector<std::string> known_operator_kinds();

/// Wraps a dynamic-module datapath in the generic executive structure the
/// VHDL generator emits around it (communication/computation sequencer
/// FSMs, handshake registers, SRL-based I/O staging FIFOs). This is the
/// resource overhead of the dynamic scheme the paper's Table 1 measures:
/// "This overhead is due to the generic VHDL structure generation, based
/// on the macro code description" (§6).
netlist::Netlist wrap_executive(const netlist::Netlist& datapath);

}  // namespace pdr::synth
