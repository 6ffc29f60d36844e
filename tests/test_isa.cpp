// ISA-layer tests: program builder, label resolution, classification
// helpers, disassembler round-trips.
#include <gtest/gtest.h>

#include "src/cluster/cluster.hpp"
#include "src/isa/disasm.hpp"
#include "src/isa/instruction.hpp"
#include "src/isa/program.hpp"
#include "tests/support/test_support.hpp"

namespace tcdm {
namespace {

TEST(ProgramBuilder, ForwardAndBackwardLabels) {
  ProgramBuilder pb("labels");
  Label fwd = pb.make_label();
  Label back = pb.make_label();
  pb.bind(back);             // 0
  pb.addi(t0, t0, 1);        // 0
  pb.bnez(t0, fwd);          // 1 -> 3
  pb.j(back);                // 2 -> 0
  pb.bind(fwd);
  pb.halt();                 // 3
  const Program p = pb.build();
  ASSERT_EQ(p.size(), 4u);
  EXPECT_EQ(p.at(1).imm, 3);
  EXPECT_EQ(p.at(2).imm, 0);
}

TEST(ProgramBuilder, UnboundLabelThrows) {
  ProgramBuilder pb("bad");
  Label never = pb.make_label();
  pb.j(never);
  EXPECT_THROW((void)pb.build(), ProgramError);
}

TEST(ProgramBuilder, DoubleBindThrows) {
  ProgramBuilder pb("bad2");
  Label l = pb.make_label();
  pb.bind(l);
  EXPECT_THROW(pb.bind(l), ProgramError);
}

TEST(ProgramBuilder, EmitsExpectedFields) {
  ProgramBuilder pb;
  pb.li(a2, -42);
  pb.vfmacc_vf(VReg{8}, ft3, VReg{12});
  pb.vsetvli(t0, a3, Lmul::m8);
  pb.vlse32(VReg{4}, a2, a4);
  const Program p = pb.build();
  EXPECT_EQ(p.at(0).op, Opcode::kLi);
  EXPECT_EQ(p.at(0).rd, a2.idx);
  EXPECT_EQ(p.at(0).imm, -42);
  EXPECT_EQ(p.at(1).op, Opcode::kVfmaccVF);
  EXPECT_EQ(p.at(1).rd, 8);
  EXPECT_EQ(p.at(1).rs1, ft3.idx);
  EXPECT_EQ(p.at(1).rs2, 12);
  EXPECT_EQ(p.at(2).lmul, Lmul::m8);
  EXPECT_EQ(p.at(3).rs2, a4.idx);
}

TEST(ProgramBuilder, BuiltProgramExecutesOnTheSupportCluster) {
  // End-to-end sanity for the builder: labels, ALU ops and a store resolve
  // into a program the deterministic one-tile fixture cluster can retire.
  ProgramBuilder pb("e2e");
  pb.li(t0, 11);
  pb.li(t1, 31);
  pb.add(t2, t0, t1);
  pb.li(t3, 0x40);
  pb.sw(t2, t3, 0);
  pb.halt();
  Cluster cluster(test::one_tile_config());
  cluster.load_program(pb.build());
  EXPECT_TRUE(cluster.run(10'000).all_halted);
  EXPECT_EQ(cluster.read_word(0x40), 42u);
}

TEST(IsaClassification, VectorPredicates) {
  EXPECT_TRUE(is_vector(Opcode::kVsetvli));
  EXPECT_TRUE(is_vector(Opcode::kVle32));
  EXPECT_TRUE(is_vector(Opcode::kVfredusum));
  EXPECT_FALSE(is_vector(Opcode::kAdd));
  EXPECT_FALSE(is_vector(Opcode::kFlw));

  EXPECT_TRUE(is_vector_memory(Opcode::kVle32));
  EXPECT_TRUE(is_vector_memory(Opcode::kVsse32));
  EXPECT_TRUE(is_vector_memory(Opcode::kVsuxei32));
  EXPECT_FALSE(is_vector_memory(Opcode::kVfaddVV));
}

TEST(IsaClassification, EveryOpcodeHasName) {
  for (int op = 0; op <= static_cast<int>(Opcode::kVfredusum); ++op) {
    EXPECT_STRNE(opcode_name(static_cast<Opcode>(op)), "?");
  }
}

TEST(Disasm, RendersRepresentativeInstructions) {
  ProgramBuilder pb;
  pb.vfmacc_vv(VReg{8}, VReg{4}, VReg{12});
  pb.lw(t0, a2, 8);
  pb.vsse32(VReg{2}, a6, s1);
  pb.barrier();
  const Program p = pb.build();
  EXPECT_EQ(disasm(p.at(0)), "vfmacc.vv v8, v4, v12");
  EXPECT_EQ(disasm(p.at(1)), "lw x5, 8(x12)");
  EXPECT_EQ(disasm(p.at(2)), "vsse32.v v2, (x16), x9");
  EXPECT_EQ(disasm(p.at(3)), "barrier ");
}

TEST(Disasm, ProgramListingContainsAllLines) {
  ProgramBuilder pb("listing");
  pb.nop();
  pb.halt();
  const std::string text = disasm(pb.build());
  EXPECT_NE(text.find("listing"), std::string::npos);
  EXPECT_NE(text.find("0:"), std::string::npos);
  EXPECT_NE(text.find("halt"), std::string::npos);
}

}  // namespace
}  // namespace tcdm
