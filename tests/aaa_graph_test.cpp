#include <gtest/gtest.h>

#include "aaa/algorithm_graph.hpp"
#include "aaa/architecture_graph.hpp"
#include "aaa/durations.hpp"
#include "util/error.hpp"

namespace pdr::aaa {
namespace {

// --- algorithm graph -----------------------------------------------------------

AlgorithmGraph pipeline3() {
  AlgorithmGraph g;
  g.add_sensor("in");
  g.add_compute("work", "fir");
  g.add_actuator("out");
  g.add_dependency("in", "work", 64);
  g.add_dependency("work", "out", 64);
  return g;
}

TEST(AlgorithmGraph, BuildAndValidate) {
  AlgorithmGraph g = pipeline3();
  EXPECT_NO_THROW(g.validate());
  EXPECT_EQ(g.size(), 3u);
  EXPECT_EQ(g.op(g.by_name("work")).kind, "fir");
}

TEST(AlgorithmGraph, DuplicateNameRejected) {
  AlgorithmGraph g;
  g.add_sensor("x");
  EXPECT_THROW(g.add_compute("x", "fir"), pdr::Error);
}

TEST(AlgorithmGraph, UnknownNameThrows) {
  AlgorithmGraph g = pipeline3();
  EXPECT_THROW(g.by_name("nope"), pdr::Error);
  EXPECT_FALSE(g.find("nope").has_value());
}

TEST(AlgorithmGraph, SelfDependencyRejected) {
  AlgorithmGraph g;
  g.add_compute("a", "fir");
  EXPECT_THROW(g.add_dependency("a", "a", 1), pdr::Error);
}

TEST(AlgorithmGraph, CycleFailsValidation) {
  AlgorithmGraph g;
  g.add_compute("a", "fir");
  g.add_compute("b", "fir");
  g.add_dependency("a", "b", 1);
  g.add_dependency("b", "a", 1);
  EXPECT_THROW(g.validate(), pdr::Error);
}

TEST(AlgorithmGraph, SensorWithInputFailsValidation) {
  AlgorithmGraph g;
  g.add_compute("a", "fir");
  g.add_sensor("s");
  g.add_dependency("a", "s", 1);
  EXPECT_THROW(g.validate(), pdr::Error);
}

TEST(AlgorithmGraph, ActuatorWithOutputFailsValidation) {
  AlgorithmGraph g;
  g.add_actuator("out");
  g.add_compute("a", "fir");
  g.add_dependency("out", "a", 1);
  EXPECT_THROW(g.validate(), pdr::Error);
}

TEST(AlgorithmGraph, ConditionedVertexNeedsTwoAlternatives) {
  AlgorithmGraph g;
  EXPECT_THROW(g.add_conditioned("m", {{"only", "qpsk_mapper", {}}}), pdr::Error);
}

TEST(AlgorithmGraph, ConditionedDuplicateAlternativeFailsValidation) {
  AlgorithmGraph g;
  g.add_conditioned("m", {{"a", "qpsk_mapper", {}}, {"a", "qam16_mapper", {}}});
  EXPECT_THROW(g.validate(), pdr::Error);
}

TEST(AlgorithmGraph, DotShowsConditionedVertices) {
  AlgorithmGraph g;
  g.add_conditioned("mod", {{"qpsk", "qpsk_mapper", {}}, {"qam16", "qam16_mapper", {}}});
  g.add_sensor("in");
  g.add_dependency("in", "mod", 8);
  const std::string dot = g.to_dot();
  EXPECT_NE(dot.find("doubleoctagon"), std::string::npos);
  EXPECT_NE(dot.find("qam16"), std::string::npos);
}

// --- architecture graph -----------------------------------------------------------

TEST(ArchitectureGraph, SundanceModel) {
  ArchitectureGraph arch = make_sundance_architecture();
  EXPECT_NO_THROW(arch.validate());
  EXPECT_EQ(arch.operators().size(), 3u);
  EXPECT_EQ(arch.media().size(), 2u);
  EXPECT_EQ(arch.op(arch.by_name("DSP")).kind, OperatorKind::Processor);
  EXPECT_EQ(arch.op(arch.by_name("D1")).kind, OperatorKind::FpgaRegion);
  EXPECT_EQ(arch.op(arch.by_name("D1")).region, "D1");
}

TEST(ArchitectureGraph, Figure1Model) {
  ArchitectureGraph arch = make_figure1_architecture(2, 100e6);
  EXPECT_NO_THROW(arch.validate());
  EXPECT_EQ(arch.operators_of_kind(OperatorKind::FpgaRegion).size(), 2u);
  EXPECT_EQ(arch.media().size(), 1u);  // the internal link IL
}

TEST(ArchitectureGraph, RouteThroughMedia) {
  ArchitectureGraph arch = make_sundance_architecture();
  const auto route = arch.route(arch.by_name("DSP"), arch.by_name("F1"));
  ASSERT_EQ(route.size(), 1u);
  EXPECT_EQ(arch.medium(route[0]).name, "SHB");

  // DSP -> D1 crosses SHB then LIO.
  const auto long_route = arch.route(arch.by_name("DSP"), arch.by_name("D1"));
  ASSERT_EQ(long_route.size(), 2u);
  EXPECT_EQ(arch.medium(long_route[0]).name, "SHB");
  EXPECT_EQ(arch.medium(long_route[1]).name, "LIO");
}

TEST(ArchitectureGraph, RouteToSelfIsEmpty) {
  ArchitectureGraph arch = make_sundance_architecture();
  EXPECT_TRUE(arch.route(arch.by_name("F1"), arch.by_name("F1")).empty());
}

TEST(ArchitectureGraph, DisconnectedFailsValidation) {
  ArchitectureGraph arch;
  arch.add_operator(OperatorNode{"A", OperatorKind::Processor, 1.0, "", ""});
  arch.add_operator(OperatorNode{"B", OperatorKind::Processor, 1.0, "", ""});
  EXPECT_THROW(arch.validate(), pdr::Error);
}

TEST(ArchitectureGraph, ConnectRequiresOperatorAndMedium) {
  ArchitectureGraph arch;
  const NodeId a = arch.add_operator(OperatorNode{"A", OperatorKind::Processor, 1.0, "", ""});
  const NodeId b = arch.add_operator(OperatorNode{"B", OperatorKind::Processor, 1.0, "", ""});
  EXPECT_THROW(arch.connect(a, b), pdr::Error);
}

TEST(ArchitectureGraph, RegionOperatorNeedsRegionName) {
  ArchitectureGraph arch;
  EXPECT_THROW(arch.add_operator(OperatorNode{"D", OperatorKind::FpgaRegion, 1.0, "XC2V2000", ""}),
               pdr::Error);
}

TEST(ArchitectureGraph, MediumNeedsBandwidth) {
  ArchitectureGraph arch;
  EXPECT_THROW(arch.add_medium(MediumNode{"bus", 0.0, 0}), pdr::Error);
}

TEST(ArchitectureGraph, MediumTransferTime) {
  const MediumNode m{"bus", 100e6, 500};
  EXPECT_EQ(m.transfer_time(0), 500);
  EXPECT_EQ(m.transfer_time(100), 500 + 1000);  // 100 B at 100 MB/s = 1 us
}

TEST(ArchitectureGraph, DotContainsAllVertices) {
  ArchitectureGraph arch = make_sundance_architecture();
  const std::string dot = arch.to_dot();
  for (const char* name : {"DSP", "F1", "D1", "SHB", "LIO"})
    EXPECT_NE(dot.find(name), std::string::npos) << name;
}

// --- durations ------------------------------------------------------------------

TEST(Durations, KindAndNameLookup) {
  DurationTable t;
  t.set("fir", OperatorKind::Processor, 1000);
  t.set_for("fir", "DSP2", 400);
  const OperatorNode any{"DSP1", OperatorKind::Processor, 1.0, "", ""};
  const OperatorNode special{"DSP2", OperatorKind::Processor, 1.0, "", ""};
  EXPECT_EQ(t.lookup("fir", any), 1000);
  EXPECT_EQ(t.lookup("fir", special), 400);  // name entry wins
}

TEST(Durations, SpeedFactorScales) {
  DurationTable t;
  t.set("fir", OperatorKind::Processor, 1000);
  const OperatorNode fast{"D", OperatorKind::Processor, 2.0, "", ""};
  EXPECT_EQ(t.lookup("fir", fast), 500);
}

TEST(Durations, UnsupportedThrows) {
  DurationTable t;
  t.set("fir", OperatorKind::Processor, 1000);
  const OperatorNode fpga{"F", OperatorKind::FpgaStatic, 1.0, "", ""};
  EXPECT_FALSE(t.supports("fir", fpga));
  EXPECT_THROW(t.lookup("fir", fpga), pdr::Error);
  EXPECT_THROW(t.mean("nothing"), pdr::Error);
}

TEST(Durations, MeanAveragesEntries) {
  DurationTable t;
  t.set("fir", OperatorKind::Processor, 1000);
  t.set("fir", OperatorKind::FpgaStatic, 200);
  EXPECT_DOUBLE_EQ(t.mean("fir"), 600.0);
}

TEST(Durations, McCdmaTableCoversCaseStudyKinds) {
  const DurationTable t = mccdma_durations();
  const OperatorNode dsp{"DSP", OperatorKind::Processor, 1.0, "", ""};
  const OperatorNode f1{"F1", OperatorKind::FpgaStatic, 1.0, "", ""};
  for (const char* kind : {"bit_source", "scrambler", "conv_encoder", "interleaver",
                           "qpsk_mapper", "qam16_mapper", "walsh_spreader", "ifft",
                           "cyclic_prefix", "frame_builder", "interface_in_out"}) {
    EXPECT_TRUE(t.supports(kind, dsp)) << kind;
    EXPECT_TRUE(t.supports(kind, f1)) << kind;
    // FPGA is faster than the DSP for the datapath blocks.
    if (std::string(kind) != "interface_in_out") {
      EXPECT_LT(t.lookup(kind, f1), t.lookup(kind, dsp)) << kind;
    }
  }
}

TEST(Durations, RejectsNonPositive) {
  DurationTable t;
  EXPECT_THROW(t.set("x", OperatorKind::Processor, 0), pdr::Error);
  EXPECT_THROW(t.set_for("x", "A", -5), pdr::Error);
}

}  // namespace
}  // namespace pdr::aaa
