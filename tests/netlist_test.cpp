#include <gtest/gtest.h>

#include "netlist/library.hpp"
#include "netlist/netlist.hpp"
#include "util/error.hpp"

namespace pdr::netlist {
namespace {

TEST(Netlist, CountsAccumulate) {
  Netlist n("m");
  n.add(PrimitiveKind::Lut4, 3).add(PrimitiveKind::Lut4, 2).add(PrimitiveKind::FlipFlop, 4);
  EXPECT_EQ(n.count(PrimitiveKind::Lut4), 5);
  EXPECT_EQ(n.count(PrimitiveKind::FlipFlop), 4);
  EXPECT_EQ(n.count(PrimitiveKind::Bram18), 0);
  EXPECT_EQ(n.total_primitives(), 9);
}

TEST(Netlist, PortsAndBitCounts) {
  Netlist n("m");
  n.add_port("a", 8, PortDir::In).add_port("b", 3, PortDir::In).add_port("y", 16, PortDir::Out);
  EXPECT_EQ(n.input_bits(), 11);
  EXPECT_EQ(n.output_bits(), 16);
  EXPECT_EQ(n.ports().size(), 3u);
}

TEST(Netlist, DuplicatePortRejected) {
  Netlist n("m");
  n.add_port("a", 1, PortDir::In);
  EXPECT_THROW(n.add_port("a", 2, PortDir::Out), pdr::Error);
}

TEST(Netlist, InvalidArgsRejected) {
  EXPECT_THROW(Netlist(""), pdr::Error);
  Netlist n("m");
  EXPECT_THROW(n.add_port("p", 0, PortDir::In), pdr::Error);
  EXPECT_THROW(n.add(PrimitiveKind::Lut4, -1), pdr::Error);
  EXPECT_THROW(n.instantiate(n, -1), pdr::Error);
}

TEST(Netlist, InstantiateMultiplies) {
  Netlist sub("sub");
  sub.add(PrimitiveKind::Lut4, 3).add(PrimitiveKind::FlipFlop, 2);
  Netlist top("top");
  top.instantiate(sub, 4);
  EXPECT_EQ(top.count(PrimitiveKind::Lut4), 12);
  EXPECT_EQ(top.count(PrimitiveKind::FlipFlop), 8);
  ASSERT_EQ(top.submodules().size(), 1u);
  EXPECT_EQ(top.submodules()[0].first, "sub");
  EXPECT_EQ(top.submodules()[0].second, 4);
}

TEST(Netlist, HashStableAndSensitive) {
  Netlist a("m");
  a.add(PrimitiveKind::Lut4, 3);
  Netlist b("m");
  b.add(PrimitiveKind::Lut4, 3);
  EXPECT_EQ(a.content_hash(), b.content_hash());
  b.add(PrimitiveKind::Lut4, 1);
  EXPECT_NE(a.content_hash(), b.content_hash());
  Netlist c("other");
  c.add(PrimitiveKind::Lut4, 3);
  EXPECT_NE(a.content_hash(), c.content_hash());
}

TEST(Netlist, HashSensitiveToPorts) {
  Netlist a("m"), b("m");
  a.add_port("x", 4, PortDir::In);
  b.add_port("x", 8, PortDir::In);
  EXPECT_NE(a.content_hash(), b.content_hash());
}

// --- library formulas ---------------------------------------------------------

TEST(Library, Clog2) {
  EXPECT_EQ(clog2(1), 0);
  EXPECT_EQ(clog2(2), 1);
  EXPECT_EQ(clog2(3), 2);
  EXPECT_EQ(clog2(1024), 10);
  EXPECT_THROW(clog2(0), pdr::Error);
}

TEST(Library, Register) {
  const Netlist n = make_register(16);
  EXPECT_EQ(n.count(PrimitiveKind::FlipFlop), 16);
  EXPECT_EQ(n.count(PrimitiveKind::Lut4), 0);
}

TEST(Library, CounterAndAdder) {
  EXPECT_EQ(make_counter(8).count(PrimitiveKind::FlipFlop), 8);
  EXPECT_EQ(make_counter(8).count(PrimitiveKind::Lut4), 8);
  EXPECT_EQ(make_adder(12).count(PrimitiveKind::Lut4), 12);
}

TEST(Library, MuxGrowsWithWays) {
  EXPECT_EQ(make_mux(8, 2).count(PrimitiveKind::Lut4), 8);
  EXPECT_EQ(make_mux(8, 4).count(PrimitiveKind::Lut4), 24);
  EXPECT_THROW(make_mux(8, 1), pdr::Error);
}

TEST(Library, ShiftRegisterUsesSrl16) {
  EXPECT_EQ(make_shift_register(1, 16).count(PrimitiveKind::Lut4), 1);
  EXPECT_EQ(make_shift_register(1, 17).count(PrimitiveKind::Lut4), 2);
  EXPECT_EQ(make_shift_register(8, 32).count(PrimitiveKind::Lut4), 16);
}

TEST(Library, RomSmallUsesLuts) {
  const Netlist n = make_rom(16, 8);
  EXPECT_EQ(n.count(PrimitiveKind::Bram18), 0);
  EXPECT_EQ(n.count(PrimitiveKind::Lut4), 8);
}

TEST(Library, RomLargeUsesBram) {
  const Netlist n = make_rom(2048, 18);
  EXPECT_EQ(n.count(PrimitiveKind::Bram18), 2);  // 36864 bits -> 2 BRAM18
}

TEST(Library, MultiplierBlocks) {
  EXPECT_EQ(make_multiplier(16).count(PrimitiveKind::Mult18), 1);
  EXPECT_EQ(make_multiplier(18).count(PrimitiveKind::Mult18), 1);
  EXPECT_EQ(make_multiplier(32).count(PrimitiveKind::Mult18), 4);
}

TEST(Library, FsmScalesWithStates) {
  const Netlist small = make_fsm(4, 2, 3);
  const Netlist big = make_fsm(32, 2, 3);
  EXPECT_EQ(small.count(PrimitiveKind::FlipFlop), 2);
  EXPECT_EQ(big.count(PrimitiveKind::FlipFlop), 5);
  EXPECT_GT(big.count(PrimitiveKind::Lut4), small.count(PrimitiveKind::Lut4));
  EXPECT_THROW(make_fsm(1, 0, 0), pdr::Error);
}

TEST(Library, FifoSmallAvoidsBram) {
  const Netlist n = make_fifo(16, 8);  // 128 bits
  EXPECT_EQ(n.count(PrimitiveKind::Bram18), 0);
  EXPECT_GT(n.count(PrimitiveKind::Lut4), 0);
}

TEST(Library, FifoLargeUsesBram) {
  const Netlist n = make_fifo(1024, 32);
  EXPECT_GE(n.count(PrimitiveKind::Bram18), 2);
}

TEST(Library, PingPongHasTwoBuffersAndPhaseFsm) {
  const Netlist n = make_ping_pong_buffer(512, 32);
  EXPECT_EQ(n.count(PrimitiveKind::Bram18), 2);
  EXPECT_GT(n.count(PrimitiveKind::FlipFlop), 0);
}

class LibraryWidthTest : public ::testing::TestWithParam<int> {};

TEST_P(LibraryWidthTest, FormulasMonotoneInWidth) {
  const int w = GetParam();
  EXPECT_LE(make_register(w).total_primitives(), make_register(w + 1).total_primitives());
  EXPECT_LE(make_adder(w).total_primitives(), make_adder(w + 1).total_primitives());
  EXPECT_LE(make_counter(w).total_primitives(), make_counter(w + 1).total_primitives());
}

INSTANTIATE_TEST_SUITE_P(Widths, LibraryWidthTest, ::testing::Values(1, 2, 4, 8, 16, 24, 31));

}  // namespace
}  // namespace pdr::netlist
