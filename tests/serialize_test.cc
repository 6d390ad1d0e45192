// Tests for firmware serialization and the IR disassembler: byte-exact
// round trips of real compiled programs, corruption rejection, and
// disassembly sanity.
#include <gtest/gtest.h>

#include "compiler/pipeline.h"
#include "microc/disasm.h"
#include "microc/interp.h"
#include "microc/serialize.h"
#include "microc/verify.h"
#include "workloads/lambdas.h"

namespace lnic::microc {
namespace {

Program standard_firmware() {
  auto bundle = workloads::make_standard_workloads();
  auto compiled = compiler::compile(bundle.spec, std::move(bundle.lambdas));
  EXPECT_TRUE(compiled.ok());
  return std::move(compiled).value().program;
}

bool programs_equal(const Program& a, const Program& b) {
  if (a.name != b.name) return false;
  if (a.objects.size() != b.objects.size()) return false;
  for (std::size_t i = 0; i < a.objects.size(); ++i) {
    const auto& x = a.objects[i];
    const auto& y = b.objects[i];
    if (x.name != y.name || x.size != y.size || x.scope != y.scope ||
        x.access != y.access || x.hint != y.hint || x.region != y.region ||
        x.initial_data != y.initial_data) {
      return false;
    }
  }
  if (a.functions.size() != b.functions.size()) return false;
  for (std::size_t i = 0; i < a.functions.size(); ++i) {
    const auto& x = a.functions[i];
    const auto& y = b.functions[i];
    if (x.name != y.name || x.num_regs != y.num_regs ||
        x.num_args != y.num_args || x.blocks.size() != y.blocks.size()) {
      return false;
    }
    for (std::size_t bidx = 0; bidx < x.blocks.size(); ++bidx) {
      if (x.blocks[bidx].instrs != y.blocks[bidx].instrs) return false;
    }
  }
  return a.parsed_fields == b.parsed_fields &&
         a.dispatch_function == b.dispatch_function &&
         a.lambda_entries == b.lambda_entries;
}

TEST(Serialize, RoundTripsTheStandardFirmware) {
  const Program original = standard_firmware();
  const auto bytes = serialize(original);
  EXPECT_GT(bytes.size(), 1000u);
  auto restored = deserialize(bytes);
  ASSERT_TRUE(restored.ok()) << restored.error().message;
  EXPECT_TRUE(programs_equal(original, restored.value()));
  EXPECT_TRUE(verify(restored.value()).ok());
}

TEST(Serialize, RestoredFirmwareExecutesIdentically) {
  const Program original = standard_firmware();
  auto restored = deserialize(serialize(original));
  ASSERT_TRUE(restored.ok());

  Invocation inv;
  inv.headers.fields[kHdrWorkloadId] = workloads::kWebServerId;
  inv.headers.fields[kHdrOp] = 2;
  inv.match_data = {1};

  ObjectStore s1(original), s2(restored.value());
  Machine m1(original, CostModel::npu(), &s1);
  Machine m2(restored.value(), CostModel::npu(), &s2);
  const auto o1 = m1.run(inv);
  const auto o2 = m2.run(inv);
  ASSERT_EQ(o1.state, RunState::kDone);
  ASSERT_EQ(o2.state, RunState::kDone);
  EXPECT_EQ(o1.response, o2.response);
  EXPECT_EQ(o1.cycles, o2.cycles);
}

TEST(Serialize, SerializationIsDeterministic) {
  const Program p = standard_firmware();
  EXPECT_EQ(serialize(p), serialize(p));
}

TEST(Serialize, RejectsBadMagic) {
  auto bytes = serialize(standard_firmware());
  bytes[0] ^= 0xFF;
  auto r = deserialize(bytes);
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.error().message.find("magic"), std::string::npos);
}

TEST(Serialize, RejectsBadVersion) {
  auto bytes = serialize(standard_firmware());
  bytes[4] = 99;
  EXPECT_FALSE(deserialize(bytes).ok());
}

TEST(Serialize, RejectsTruncation) {
  const auto bytes = serialize(standard_firmware());
  for (const std::size_t cut : {bytes.size() / 4, bytes.size() / 2,
                                bytes.size() - 1}) {
    std::vector<std::uint8_t> truncated(bytes.begin(),
                                        bytes.begin() + static_cast<std::ptrdiff_t>(cut));
    EXPECT_FALSE(deserialize(truncated).ok()) << "cut=" << cut;
  }
}

TEST(Serialize, RejectsTrailingGarbage) {
  auto bytes = serialize(standard_firmware());
  bytes.push_back(0);
  auto r = deserialize(bytes);
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.error().message.find("trailing"), std::string::npos);
}

// Decodes fine but fails verification: a one-register function whose
// kConst writes register 60000. Such an image used to deserialize, and
// running it wrote far outside the register file.
Program out_of_range_register_program() {
  Program p;
  p.name = "evil";
  Function f;
  f.name = "evil";
  f.num_regs = 1;
  BasicBlock b;
  b.instrs.push_back({.op = Opcode::kConst, .dst = 60000, .imm = 7});
  b.instrs.push_back({.op = Opcode::kRet, .a = 0});
  f.blocks.push_back(b);
  p.functions.push_back(f);
  p.lambda_entries = {{1, 0}};
  return p;
}

TEST(Serialize, RejectsImageThatFailsVerification) {
  auto r = deserialize(serialize(out_of_range_register_program()));
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.error().message.find("verify: function 'evil': register index "
                                   "out of range at const"),
            std::string::npos)
      << r.error().message;
}

TEST(Serialize, UnverifiedProgramNeverExecutes) {
  // The same program handed straight to the interpreter: lowering it is
  // refused, and a bare-Program Machine traps with the verifier's
  // message instead of touching register 60000.
  const Program p = out_of_range_register_program();
  const auto image = Executable::build(p, CostModel::npu());
  ASSERT_FALSE(image.ok());
  EXPECT_NE(image.error().message.find("register index out of range"),
            std::string::npos);
  ObjectStore store(p);
  Machine m(p, CostModel::npu(), &store);
  const Outcome out = m.run(Invocation{});
  EXPECT_EQ(out.state, RunState::kTrap);
  EXPECT_NE(out.trap_message.find("register index out of range"),
            std::string::npos);
}

TEST(Serialize, EmptyProgramRoundTrips) {
  Program empty;
  empty.name = "empty";
  auto r = deserialize(serialize(empty));
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().name, "empty");
  EXPECT_TRUE(r.value().functions.empty());
}

// ----------------------------------------------------------- disassembler

TEST(Disasm, ListsObjectsParserAndFunctions) {
  const Program p = standard_firmware();
  const std::string text = disassemble(p);
  EXPECT_NE(text.find("web_content"), std::string::npos);
  EXPECT_NE(text.find("image_buf"), std::string::npos);
  EXPECT_NE(text.find("func web_server"), std::string::npos);
  EXPECT_NE(text.find("__match_dispatch"), std::string::npos);
  EXPECT_NE(text.find("parser:"), std::string::npos);
  EXPECT_NE(text.find("words"), std::string::npos);
}

TEST(Disasm, InstructionFormats) {
  Program p;
  MemObject obj;
  obj.name = "buf";
  obj.size = 64;
  p.objects.push_back(obj);
  EXPECT_EQ(disassemble(Instr{.op = Opcode::kConst, .dst = 3, .imm = 42}, p),
            "const r3, 42");
  EXPECT_EQ(disassemble(Instr{.op = Opcode::kAdd, .dst = 2, .a = 0, .b = 1}, p),
            "add r2, r0, r1");
  EXPECT_EQ(disassemble(Instr{.op = Opcode::kLoad, .dst = 5, .a = 2,
                              .imm = 8, .obj = 0, .width = 4},
                        p),
            "load.4 r5, buf[r2+8]");
  EXPECT_EQ(disassemble(Instr{.op = Opcode::kBrIf, .a = 1, .b = 3, .imm = 2},
                        p),
            "brif r1, .b2, .b3");
  EXPECT_EQ(disassemble(Instr{.op = Opcode::kLoadHdr, .dst = 1,
                              .imm = kHdrKey},
                        p),
            "ldhdr r1, hdr.key");
}

TEST(Disasm, EveryOpcodeHasAForm) {
  // Smoke: disassembling any instruction never yields an empty string.
  Program p;
  MemObject obj;
  obj.name = "o";
  obj.size = 8;
  p.objects.push_back(obj);
  Function f;
  f.name = "g";
  p.functions.push_back(f);
  for (int op = 0; op <= static_cast<int>(Opcode::kRet); ++op) {
    Instr in;
    in.op = static_cast<Opcode>(op);
    in.imm = 0;
    EXPECT_FALSE(disassemble(in, p).empty()) << op;
  }
}

}  // namespace
}  // namespace lnic::microc
