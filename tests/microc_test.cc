// Tests for the Micro-C IR, builder, verifier, and interpreter:
// arithmetic semantics, memory isolation traps, external-call suspension,
// cycle accounting, and code-size lowering.
#include <gtest/gtest.h>

#include <vector>

#include "microc/builder.h"
#include "microc/interp.h"
#include "microc/ir.h"
#include "microc/verify.h"

namespace lnic::microc {
namespace {

// Builds a single-function program that returns f(args) and runs it.
struct MiniProgram {
  Program program;
  std::size_t entry;
};

Outcome run_simple(const Program& program, std::size_t fn,
                   const Invocation& inv = {}) {
  ObjectStore store(program);
  Machine machine(program, CostModel::npu(), &store);
  return machine.run_function(fn, inv);
}

TEST(Builder, EmitsVerifiableFunction) {
  ProgramBuilder pb("t");
  auto fb = pb.function("add2", 2);
  auto sum = fb.add(fb.arg(0), fb.arg(1));
  fb.ret(sum);
  const auto idx = fb.finish();
  const Status st = verify(pb.program());
  EXPECT_TRUE(st.ok()) << (st.ok() ? "" : st.error().message);

  Invocation inv;
  Program p = pb.take();
  ObjectStore store(p);
  Machine m(p, CostModel::npu(), &store);
  // Args arrive in r0..r1 — set via a wrapper that loads constants.
  // Easier: no-arg wrapper exercises kCall too.
  (void)idx;
}

TEST(Interp, ArithmeticChain) {
  ProgramBuilder pb("t");
  auto fb = pb.function("calc", 0);
  auto a = fb.const_u64(21);
  auto b = fb.const_u64(2);
  auto prod = fb.mul(a, b);          // 42
  auto c = fb.const_u64(10);
  auto diff = fb.sub(prod, c);       // 32
  auto shifted = fb.shl(diff, fb.const_u64(1)); // 64
  auto rem = fb.remu(shifted, fb.const_u64(10)); // 4
  fb.ret(rem);
  const auto idx = fb.finish();
  const Program p = pb.take();
  ASSERT_TRUE(verify(p).ok());
  const Outcome out = run_simple(p, idx);
  ASSERT_EQ(out.state, RunState::kDone);
  EXPECT_EQ(out.return_value, 4u);
  EXPECT_GT(out.cycles, 0u);
  EXPECT_EQ(out.instructions, 10u);
}

TEST(Interp, DivisionByZeroTraps) {
  ProgramBuilder pb("t");
  auto fb = pb.function("div0", 0);
  auto a = fb.const_u64(1);
  auto z = fb.const_u64(0);
  fb.ret(fb.divu(a, z));
  const auto idx = fb.finish();
  const Outcome out = run_simple(pb.take(), idx);
  EXPECT_EQ(out.state, RunState::kTrap);
  EXPECT_NE(out.trap_message.find("zero"), std::string::npos);
}

TEST(Interp, LoadStoreRoundTrip) {
  ProgramBuilder pb("t");
  const auto obj = pb.object("buf", 64, MemScope::kLocal);
  auto fb = pb.function("rw", 0);
  auto off = fb.const_u64(8);
  auto val = fb.const_u64(0xDEADBEEFCAFEBABEull);
  fb.store(obj, off, val);
  auto loaded = fb.load(obj, off);
  fb.ret(loaded);
  const auto idx = fb.finish();
  const Outcome out = run_simple(pb.take(), idx);
  ASSERT_EQ(out.state, RunState::kDone);
  EXPECT_EQ(out.return_value, 0xDEADBEEFCAFEBABEull);
}

TEST(Interp, NarrowWidthsMaskCorrectly) {
  ProgramBuilder pb("t");
  const auto obj = pb.object("buf", 64, MemScope::kLocal);
  auto fb = pb.function("narrow", 0);
  auto off = fb.const_u64(0);
  auto val = fb.const_u64(0x1122334455667788ull);
  fb.store(obj, off, val, 0, 2);          // stores 0x7788
  auto loaded = fb.load(obj, off, 0, 2);  // loads 0x7788
  fb.ret(loaded);
  const auto idx = fb.finish();
  const Outcome out = run_simple(pb.take(), idx);
  ASSERT_EQ(out.state, RunState::kDone);
  EXPECT_EQ(out.return_value, 0x7788u);
}

TEST(Interp, OutOfBoundsLoadTrapsWithObjectName) {
  // Runtime half of the isolation story (D2): a lambda cannot read
  // outside its objects.
  ProgramBuilder pb("t");
  const auto obj = pb.object("small", 8, MemScope::kLocal);
  auto fb = pb.function("oob", 0);
  auto off = fb.const_u64(8);  // 8 + width 8 > size 8
  fb.ret(fb.load(obj, off));
  const auto idx = fb.finish();
  const Outcome out = run_simple(pb.take(), idx);
  EXPECT_EQ(out.state, RunState::kTrap);
  EXPECT_NE(out.trap_message.find("small"), std::string::npos);
}

TEST(Interp, GlobalObjectsPersistAcrossInvocations) {
  // §4.1: "global objects that persist state across runs".
  ProgramBuilder pb("t");
  const auto counter = pb.object("counter", 8, MemScope::kGlobal);
  auto fb = pb.function("bump", 0);
  auto zero = fb.const_u64(0);
  auto cur = fb.load(counter, zero);
  auto next = fb.add_imm(cur, 1);
  fb.store(counter, zero, next);
  fb.ret(next);
  const auto idx = fb.finish();
  const Program p = pb.take();
  ObjectStore store(p);
  Machine m(p, CostModel::npu(), &store);
  Invocation inv;
  EXPECT_EQ(m.run_function(idx, inv).return_value, 1u);
  EXPECT_EQ(m.run_function(idx, inv).return_value, 2u);
  EXPECT_EQ(m.run_function(idx, inv).return_value, 3u);
}

TEST(Interp, LocalObjectsZeroedPerInvocation) {
  ProgramBuilder pb("t");
  const auto scratch = pb.object("scratch", 8, MemScope::kLocal);
  auto fb = pb.function("bump", 0);
  auto zero = fb.const_u64(0);
  auto cur = fb.load(scratch, zero);
  auto next = fb.add_imm(cur, 1);
  fb.store(scratch, zero, next);
  fb.ret(next);
  const auto idx = fb.finish();
  const Program p = pb.take();
  ObjectStore store(p);
  Machine m(p, CostModel::npu(), &store);
  Invocation inv;
  EXPECT_EQ(m.run_function(idx, inv).return_value, 1u);
  EXPECT_EQ(m.run_function(idx, inv).return_value, 1u);
}

TEST(Interp, BranchingLoopComputesSum) {
  // sum(1..10) via a loop across basic blocks.
  ProgramBuilder pb("t");
  const auto acc_obj = pb.object("acc", 16, MemScope::kLocal);
  auto fb = pb.function("sum", 0);
  auto zero = fb.const_u64(0);
  auto eight = fb.const_u64(8);
  fb.store(acc_obj, zero, zero);             // acc = 0
  auto one = fb.const_u64(1);
  fb.store(acc_obj, eight, one);             // i = 1
  const auto loop = fb.block();
  const auto body = fb.block();
  const auto done = fb.block();
  fb.select_block(0);
  fb.br(loop);
  fb.select_block(loop);
  auto i = fb.load(acc_obj, eight);
  auto limit = fb.const_u64(10);
  auto cont = fb.cmp_leu(i, limit);
  fb.br_if(cont, body, done);
  fb.select_block(body);
  auto acc = fb.load(acc_obj, zero);
  auto i2 = fb.load(acc_obj, eight);
  auto acc2 = fb.add(acc, i2);
  fb.store(acc_obj, zero, acc2);
  auto i3 = fb.add_imm(i2, 1);
  fb.store(acc_obj, eight, i3);
  fb.br(loop);
  fb.select_block(done);
  auto result = fb.load(acc_obj, zero);
  fb.ret(result);
  const auto idx = fb.finish();
  const Program p = pb.take();
  ASSERT_TRUE(verify(p).ok());
  const Outcome out = run_simple(p, idx);
  ASSERT_EQ(out.state, RunState::kDone);
  EXPECT_EQ(out.return_value, 55u);
}

TEST(Interp, CallPassesArgsAndReturns) {
  ProgramBuilder pb("t");
  auto helper = pb.function("mul3", 1);
  auto tripled = helper.mul_imm(helper.arg(0), 3);
  helper.ret(tripled);
  const auto helper_idx = helper.finish();

  auto main = pb.function("main", 0);
  auto x = main.const_u64(14);
  auto r = main.call(helper_idx, {x});
  main.ret(r);
  const auto main_idx = main.finish();
  const Program p = pb.take();
  ASSERT_TRUE(verify(p).ok());
  const Outcome out = run_simple(p, main_idx);
  ASSERT_EQ(out.state, RunState::kDone);
  EXPECT_EQ(out.return_value, 42u);
}

TEST(Interp, HeaderAndBodyAccess) {
  ProgramBuilder pb("t");
  auto fb = pb.function("hdr", 0);
  auto wid = fb.load_hdr(kHdrWorkloadId);
  auto blen = fb.body_len();
  auto b0 = fb.load_body(fb.const_u64(0));
  auto sum = fb.add(wid, fb.add(blen, b0));
  fb.ret(sum);
  const auto idx = fb.finish();
  Invocation inv;
  inv.headers.fields[kHdrWorkloadId] = 100;
  inv.body = {7, 8, 9};
  const Outcome out = run_simple(pb.take(), idx, inv);
  ASSERT_EQ(out.state, RunState::kDone);
  EXPECT_EQ(out.return_value, 100u + 3u + 7u);
}

TEST(Interp, ResponseEmission) {
  ProgramBuilder pb("t");
  const auto obj = pb.object("content", 16, MemScope::kGlobal);
  auto fb = pb.function("resp", 0);
  auto off = fb.const_u64(0);
  auto ch = fb.const_u64('A');
  fb.store(obj, off, ch, 0, 1);
  auto len = fb.const_u64(1);
  fb.resp_mem(obj, off, len);
  fb.resp_byte(fb.const_u64('B'));
  fb.ret_imm(0);
  const auto idx = fb.finish();
  const Outcome out = run_simple(pb.take(), idx);
  ASSERT_EQ(out.state, RunState::kDone);
  ASSERT_EQ(out.response.size(), 2u);
  EXPECT_EQ(out.response[0], 'A');
  EXPECT_EQ(out.response[1], 'B');
}

TEST(Interp, MemCpyMovesBytesAndCharges) {
  ProgramBuilder pb("t");
  const auto src = pb.object("src", 256, MemScope::kGlobal);
  const auto dst = pb.object("dst", 256, MemScope::kGlobal);
  auto fb = pb.function("copy", 0);
  auto zero = fb.const_u64(0);
  // Fill src[0..8) with a known value first.
  auto v = fb.const_u64(0x0123456789ABCDEFull);
  fb.store(src, zero, v);
  auto len = fb.const_u64(8);
  fb.memcpy_(dst, zero, src, zero, len);
  fb.ret(fb.load(dst, zero));
  const auto idx = fb.finish();
  const Outcome out = run_simple(pb.take(), idx);
  ASSERT_EQ(out.state, RunState::kDone);
  EXPECT_EQ(out.return_value, 0x0123456789ABCDEFull);
}

TEST(Interp, GrayscaleConvertsPixels) {
  ProgramBuilder pb("t");
  const auto img = pb.object("img", 8, MemScope::kGlobal);   // 2 RGBA pixels
  const auto gray = pb.object("gray", 2, MemScope::kGlobal);
  auto fb = pb.function("g", 0);
  auto zero = fb.const_u64(0);
  // Pixel 0: pure white -> 255-ish; pixel 1: pure red -> 77-ish.
  auto white = fb.const_u64(0x00FFFFFFu | (0xFFull << 24));
  fb.store(img, zero, white, 0, 4);
  auto red = fb.const_u64(0x000000FFu);  // little-endian: R=0xFF first byte
  fb.store(img, fb.const_u64(4), red, 0, 4);
  auto two = fb.const_u64(2);
  fb.grayscale(gray, zero, img, zero, two);
  auto g0 = fb.load(gray, zero, 0, 1);
  auto g1 = fb.load(gray, fb.const_u64(1), 0, 1);
  auto packed = fb.or_(fb.shl(g1, fb.const_u64(8)), g0);
  fb.ret(packed);
  const auto idx = fb.finish();
  const Outcome out = run_simple(pb.take(), idx);
  ASSERT_EQ(out.state, RunState::kDone);
  EXPECT_EQ(out.return_value & 0xFF, (77u * 255 + 150u * 255 + 29u * 255) >> 8);
  EXPECT_EQ((out.return_value >> 8) & 0xFF, (77u * 255) >> 8);
}

TEST(Interp, ExtCallSuspendsAndResumes) {
  ProgramBuilder pb("t");
  auto fb = pb.function("kv", 0);
  auto key = fb.const_u64(1234);
  auto zero = fb.const_u64(0);
  auto reply = fb.ext_call(0, key, zero);  // GET
  auto doubled = fb.mul_imm(reply, 2);
  fb.ret(doubled);
  const auto idx = fb.finish();
  const Program p = pb.take();
  ObjectStore store(p);
  Machine m(p, CostModel::npu(), &store);
  Invocation inv;
  Outcome out = m.run_function(idx, inv);
  ASSERT_EQ(out.state, RunState::kYield);
  EXPECT_EQ(out.ext.kind, 0);
  EXPECT_EQ(out.ext.key, 1234u);
  EXPECT_TRUE(m.suspended());
  out = m.resume(21);
  ASSERT_EQ(out.state, RunState::kDone);
  EXPECT_EQ(out.return_value, 42u);
  EXPECT_FALSE(m.suspended());
}

TEST(Interp, FuelExhaustionTraps) {
  // Infinite loop must hit the compute limit, not hang (§2.1 limits).
  ProgramBuilder pb("t");
  auto fb = pb.function("spin", 0);
  const auto loop = fb.block();
  fb.select_block(0);
  fb.br(loop);
  fb.select_block(loop);
  fb.br(loop);
  const auto idx = fb.finish();
  const Program p = pb.take();
  ObjectStore store(p);
  Machine m(p, CostModel::npu(), &store);
  m.set_fuel(10'000);
  Invocation inv;
  const Outcome out = m.run_function(idx, inv);
  EXPECT_EQ(out.state, RunState::kTrap);
  EXPECT_NE(out.trap_message.find("fuel"), std::string::npos);
}

TEST(Interp, CallDepthLimitTraps) {
  // Self-recursive function must trap (recursion unsupported, §3.1b).
  ProgramBuilder pb("t");
  auto fb = pb.function("rec", 0);
  auto r = fb.call(0, {});  // calls itself
  fb.ret(r);
  const auto idx = fb.finish();
  const Outcome out = run_simple(pb.take(), idx);
  EXPECT_EQ(out.state, RunState::kTrap);
  EXPECT_NE(out.trap_message.find("depth"), std::string::npos);
}

TEST(Interp, SelectPicksByCondition) {
  ProgramBuilder pb("t");
  auto fb = pb.function("sel", 0);
  auto cond = fb.const_u64(1);
  auto a = fb.const_u64(10);
  auto b = fb.const_u64(20);
  // kSelect: dst = cond ? r[b-field] : r[imm]; use builder-level emit.
  Reg d = fb.reg();
  (void)d;
  // Easier through source-free builder: use cmp+branchless via raw Instr
  // is awkward here; exercise via arithmetic identity instead:
  // select(1, 10, 20) == 10 emulated by the interpreter opcode.
  Program p = pb.take();
  Function f;
  f.name = "sel2";
  f.num_regs = 4;
  BasicBlock blk;
  blk.instrs.push_back({.op = Opcode::kConst, .dst = 0, .imm = 0});
  blk.instrs.push_back({.op = Opcode::kConst, .dst = 1, .imm = 10});
  blk.instrs.push_back({.op = Opcode::kConst, .dst = 2, .imm = 20});
  blk.instrs.push_back({.op = Opcode::kSelect, .dst = 3, .a = 0, .b = 1,
                        .imm = 2});
  blk.instrs.push_back({.op = Opcode::kRet, .a = 3});
  f.blocks.push_back(blk);
  p.functions.push_back(f);
  ASSERT_TRUE(verify(p).ok());
  const Outcome out = run_simple(p, p.functions.size() - 1);
  EXPECT_EQ(out.return_value, 20u);  // cond = 0 -> else branch (r[imm])
  (void)cond; (void)a; (void)b;
}

TEST(Interp, RespWordLittleEndianOrder) {
  ProgramBuilder pb("t");
  auto fb = pb.function("f", 0);
  fb.resp_word(fb.const_u64(0x0102030405060708ull));
  fb.ret_imm(0);
  const auto idx = fb.finish();
  const Outcome out = run_simple(pb.take(), idx);
  ASSERT_EQ(out.response.size(), 8u);
  EXPECT_EQ(out.response[0], 0x08);
  EXPECT_EQ(out.response[7], 0x01);
}

TEST(Interp, BodyCopyRoundTrip) {
  ProgramBuilder pb("t");
  const auto obj = pb.object("buf", 32, MemScope::kLocal);
  auto fb = pb.function("f", 0);
  auto zero = fb.const_u64(0);
  auto two = fb.const_u64(2);
  auto len = fb.const_u64(4);
  fb.body_copy(obj, zero, two, len);  // buf[0..4) = body[2..6)
  fb.ret(fb.load(obj, zero, 0, 4));
  const auto idx = fb.finish();
  Invocation inv;
  inv.body = {0xAA, 0xBB, 0x11, 0x22, 0x33, 0x44, 0xCC};
  const Outcome out = run_simple(pb.take(), idx, inv);
  ASSERT_EQ(out.state, RunState::kDone) << out.trap_message;
  EXPECT_EQ(out.return_value, 0x44332211u);
}

TEST(Interp, BodyCopyOutOfBoundsTraps) {
  ProgramBuilder pb("t");
  const auto obj = pb.object("buf", 8, MemScope::kLocal);
  auto fb = pb.function("f", 0);
  auto zero = fb.const_u64(0);
  auto len = fb.const_u64(16);  // body shorter than 16
  fb.body_copy(obj, zero, zero, len);
  fb.ret_imm(0);
  const auto idx = fb.finish();
  Invocation inv;
  inv.body = {1, 2, 3};
  const Outcome out = run_simple(pb.take(), idx, inv);
  EXPECT_EQ(out.state, RunState::kTrap);
}

TEST(Interp, HashStableAcrossRuns) {
  ProgramBuilder pb("t");
  const auto obj = pb.object("buf", 64, MemScope::kGlobal);
  auto fb = pb.function("f", 0);
  auto zero = fb.const_u64(0);
  auto v = fb.const_u64(0x1234);
  fb.store(obj, zero, v);
  auto len = fb.const_u64(16);
  fb.ret(fb.hash(obj, zero, len));
  const auto idx = fb.finish();
  const Program p = pb.take();
  const auto a = run_simple(p, idx).return_value;
  const auto b = run_simple(p, idx).return_value;
  EXPECT_EQ(a, b);
  EXPECT_NE(a, 0u);
}

TEST(Interp, AbortClearsSuspension) {
  ProgramBuilder pb("t");
  auto fb = pb.function("f", 0);
  auto key = fb.const_u64(1);
  auto zero = fb.const_u64(0);
  fb.ret(fb.ext_call(0, key, zero));
  const auto idx = fb.finish();
  const Program p = pb.take();
  ObjectStore store(p);
  Machine m(p, CostModel::npu(), &store);
  Invocation inv;
  auto out = m.run_function(idx, inv);
  ASSERT_EQ(out.state, RunState::kYield);
  m.abort();  // e.g. the external call timed out
  EXPECT_FALSE(m.suspended());
  // The machine is reusable for a fresh invocation afterwards.
  out = m.run_function(idx, inv);
  EXPECT_EQ(out.state, RunState::kYield);
}

TEST(Verify, RejectsDirectRecursion) {
  ProgramBuilder pb("t");
  auto fb = pb.function("rec", 0);
  auto r = fb.call(0, {});
  fb.ret(r);
  fb.finish();
  const Status st = verify(pb.program());
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.error().message.find("cycle"), std::string::npos);
}

TEST(Verify, RejectsMutualRecursion) {
  ProgramBuilder pb("t");
  auto a = pb.function("a", 0);
  auto ra = a.call(1, {});
  a.ret(ra);
  a.finish();
  auto b = pb.function("b", 0);
  auto rb = b.call(0, {});
  b.ret(rb);
  b.finish();
  EXPECT_FALSE(verify(pb.program()).ok());
}

TEST(Verify, AcceptsDiamondCallGraph) {
  // a->b, a->c, b->d, c->d: shared callee but no cycle.
  ProgramBuilder pb("t");
  auto d = pb.function("d", 0);
  d.ret_imm(1);
  const auto di = d.finish();
  auto b = pb.function("b", 0);
  b.ret(b.call(di, {}));
  const auto bi = b.finish();
  auto c = pb.function("c", 0);
  c.ret(c.call(di, {}));
  const auto ci = c.finish();
  auto a = pb.function("a", 0);
  auto x = a.call(bi, {});
  auto y = a.call(ci, {});
  a.ret(a.add(x, y));
  a.finish();
  EXPECT_TRUE(verify(pb.program()).ok());
}

TEST(CostModel, RegionLatencyOrdering) {
  const CostModel npu = CostModel::npu();
  EXPECT_LT(npu.region_read[0], npu.region_read[1]);
  EXPECT_LT(npu.region_read[1], npu.region_read[2]);
  EXPECT_LT(npu.region_read[2], npu.region_read[3]);
}

TEST(CostModel, CyclesToDuration) {
  const CostModel npu = CostModel::npu();
  // 633 cycles at 633 MHz = 1 us.
  EXPECT_NEAR(static_cast<double>(npu.cycles_to_duration(633)), 1000.0, 2.0);
}

TEST(CostModel, PythonRuntimeScalesCycles) {
  ProgramBuilder pb("t");
  auto fb = pb.function("f", 0);
  auto a = fb.const_u64(5);
  auto b = fb.add_imm(a, 3);
  fb.ret(b);
  const auto idx = fb.finish();
  const Program p = pb.take();
  ObjectStore s1(p), s2(p);
  Machine native(p, CostModel::host_native(), &s1);
  Machine python(p, CostModel::host_python(), &s2);
  Invocation inv;
  const auto n = native.run_function(idx, inv);
  const auto py = python.run_function(idx, inv);
  const double factor = microc::CostModel::host_python().runtime_factor;
  EXPECT_NEAR(static_cast<double>(py.cycles),
              static_cast<double>(n.cycles) * factor,
              static_cast<double>(n.cycles) * factor * 0.01);
}

TEST(CodeSize, MemoryPlacementChangesLoweredSize) {
  ProgramBuilder pb("t");
  const auto obj = pb.object("buf", 64, MemScope::kGlobal);
  auto fb = pb.function("f", 0);
  auto zero = fb.const_u64(0);
  fb.ret(fb.load(obj, zero));
  fb.finish();
  Program p = pb.take();
  p.objects[obj].region = MemRegion::kEmem;
  const auto emem_size = code_size(p);
  p.objects[obj].region = MemRegion::kLocal;
  const auto local_size = code_size(p);
  EXPECT_GT(emem_size, local_size);
}

TEST(CodeSize, ParserFieldsCountTowardSize) {
  ProgramBuilder pb("t");
  auto fb = pb.function("f", 0);
  fb.ret_imm(0);
  fb.finish();
  Program p0 = pb.take();
  const auto base = code_size(p0);
  p0.parsed_fields = {kHdrWorkloadId, kHdrKey, kHdrOp};
  EXPECT_EQ(code_size(p0), base + 3);
}

TEST(Verify, RejectsBadBranchTarget) {
  Program p;
  Function f;
  f.name = "bad";
  f.num_regs = 1;
  BasicBlock b;
  b.instrs.push_back({.op = Opcode::kBr, .imm = 5});
  f.blocks.push_back(b);
  p.functions.push_back(f);
  EXPECT_FALSE(verify(p).ok());
}

TEST(Verify, RejectsMissingTerminator) {
  Program p;
  Function f;
  f.name = "bad";
  f.num_regs = 2;
  BasicBlock b;
  b.instrs.push_back({.op = Opcode::kConst, .dst = 0, .imm = 1});
  f.blocks.push_back(b);
  p.functions.push_back(f);
  EXPECT_FALSE(verify(p).ok());
}

TEST(Verify, RejectsRegisterOutOfRange) {
  Program p;
  Function f;
  f.name = "bad";
  f.num_regs = 1;
  BasicBlock b;
  b.instrs.push_back({.op = Opcode::kMov, .dst = 0, .a = 9});
  b.instrs.push_back({.op = Opcode::kRet, .a = 0});
  f.blocks.push_back(b);
  p.functions.push_back(f);
  EXPECT_FALSE(verify(p).ok());
}

TEST(Verify, RejectsWrongCallArity) {
  ProgramBuilder pb("t");
  auto helper = pb.function("h", 2);
  helper.ret(helper.arg(0));
  const auto h = helper.finish();
  Program p = pb.take();
  Function f;
  f.name = "caller";
  f.num_regs = 4;
  BasicBlock b;
  b.instrs.push_back({.op = Opcode::kCall, .dst = 0, .a = 0, .b = 1,
                      .imm = static_cast<std::int64_t>(h)});
  b.instrs.push_back({.op = Opcode::kRet, .a = 0});
  f.blocks.push_back(b);
  p.functions.push_back(f);
  EXPECT_FALSE(verify(p).ok());
}

// ------------------------------------------- interpreter loop edge cases
//
// Fuel is checked before every instruction: the first instruction that
// starts with the cycle counter above the budget traps, uncharged and
// uncounted. The loop checks whole segments at once, so these pin the
// exact counters at the points where a segment check could go wrong. On
// the NPU cost model every op below costs 1 cycle except kCall (5) and
// kExtCall (60).

// A single block: const, `n` add_imm, ret.
Program straight_line(int n) {
  ProgramBuilder pb("line");
  auto fb = pb.function("f", 0);
  auto acc = fb.const_u64(1);
  for (int i = 0; i < n; ++i) acc = fb.add_imm(acc, 1);
  fb.ret(acc);
  fb.finish();
  return pb.take();
}

Outcome run_with_fuel(const Program& p, std::uint64_t fuel) {
  ObjectStore store(p);
  Machine m(p, CostModel::npu(), &store);
  m.set_fuel(fuel);
  return m.run_function(0, Invocation{});
}

TEST(InterpFuel, TrapsMidBlockWithExactCounters) {
  const Program p = straight_line(40);
  for (const std::uint64_t fuel : {0u, 1u, 5u, 17u, 40u}) {
    const Outcome out = run_with_fuel(p, fuel);
    ASSERT_EQ(out.state, RunState::kTrap) << fuel;
    EXPECT_NE(out.trap_message.find("fuel"), std::string::npos);
    EXPECT_EQ(out.cycles, fuel + 1) << fuel;
    EXPECT_EQ(out.instructions, fuel + 1) << fuel;
  }
  // 42 instructions: the ret starts at cycle 41, so 41 is enough.
  EXPECT_EQ(run_with_fuel(p, 41).state, RunState::kDone);
}

TEST(InterpFuel, TrapsExactlyAtABlockBoundary) {
  // b0: const, 3 x add_imm, br b1 (5 cycles); b1: 3 x add_imm, ret.
  ProgramBuilder pb("blocks");
  auto fb = pb.function("f", 0);
  auto acc = fb.const_u64(0);
  for (int i = 0; i < 3; ++i) acc = fb.add_imm(acc, 1);
  const auto next = fb.block();
  fb.select_block(0);
  fb.br(next);
  fb.select_block(next);
  for (int i = 0; i < 3; ++i) acc = fb.add_imm(acc, 1);
  fb.ret(acc);
  fb.finish();
  const Program p = pb.take();
  ASSERT_TRUE(verify(p).ok());

  // Budget 4: the branch starts at cycle 4 and runs; b1 starts at 5.
  Outcome out = run_with_fuel(p, 4);
  ASSERT_EQ(out.state, RunState::kTrap);
  EXPECT_EQ(out.cycles, 5u);
  EXPECT_EQ(out.instructions, 5u);
  // Budget 5: b1's first op runs, its second starts at 6.
  out = run_with_fuel(p, 5);
  ASSERT_EQ(out.state, RunState::kTrap);
  EXPECT_EQ(out.cycles, 6u);
  EXPECT_EQ(out.instructions, 6u);
  out = run_with_fuel(p, 8);
  ASSERT_EQ(out.state, RunState::kDone);
  EXPECT_EQ(out.return_value, 6u);
  EXPECT_EQ(out.cycles, 9u);
  EXPECT_EQ(out.instructions, 9u);
}

TEST(InterpCalls, ExtCallInsideACalleeResumesAndReturns) {
  ProgramBuilder pb("nested");
  auto helper = pb.function("helper", 1);
  auto reply = helper.ext_call(0, helper.arg(0), helper.arg(0));
  helper.ret(helper.mul_imm(reply, 2));
  const auto h = helper.finish();
  auto fb = pb.function("main", 0);
  auto v = fb.call(h, {fb.const_u64(5)});
  fb.ret(fb.add_imm(v, 1));
  const auto entry = fb.finish();
  const Program p = pb.take();
  ASSERT_TRUE(verify(p).ok());

  ObjectStore store(p);
  Machine m(p, CostModel::npu(), &store);
  Outcome out = m.run_function(entry, Invocation{});
  ASSERT_EQ(out.state, RunState::kYield);
  EXPECT_EQ(out.ext.key, 5u);
  EXPECT_EQ(out.ext.value, 5u);
  EXPECT_EQ(out.instructions, 4u);  // const, mov (argument), call, ext_call
  EXPECT_EQ(out.cycles, 67u);       // 1 + 1 + 5 + 60
  out = m.resume(10);
  ASSERT_EQ(out.state, RunState::kDone);
  EXPECT_EQ(out.return_value, 21u);
  EXPECT_EQ(out.instructions, 8u);  // + mul_imm, ret, add_imm, ret
  EXPECT_EQ(out.cycles, 71u);
}

TEST(InterpCalls, CallDepthLimitTrapsOnAVerifiedChain) {
  // f0 -> f1 -> ... -> f16 has no recursion, so it verifies, but it is
  // one call deeper than the NPU's 16 frames.
  ProgramBuilder pb("chain");
  auto leaf = pb.function("f16", 0);
  leaf.ret_imm(7);
  std::uint32_t callee = leaf.finish();
  for (int i = 15; i >= 0; --i) {
    auto fb = pb.function("f" + std::to_string(i), 0);
    fb.ret(fb.call(callee, {}));
    callee = fb.finish();
  }
  const Program p = pb.take();
  ASSERT_TRUE(verify(p).ok());
  ObjectStore store(p);
  Machine m(p, CostModel::npu(), &store);
  const Outcome out = m.run_function(callee, Invocation{});
  ASSERT_EQ(out.state, RunState::kTrap);
  EXPECT_NE(out.trap_message.find("call depth"), std::string::npos);
  EXPECT_EQ(out.instructions, 16u);  // 15 calls + the trapping one
  EXPECT_EQ(out.cycles, 75u);        // only completed calls are charged
}

// A program whose "dirty" lambdas leave 77 in r0 and in a local object,
// then trap or suspend; "probe" returns r0 (never written) plus the
// local's first byte, which is its initial data.
struct ReuseProgram {
  Program program;
  std::uint32_t trap_fn, yield_fn, probe_fn;
};

ReuseProgram reuse_program() {
  ProgramBuilder pb("reuse");
  const auto scratch = pb.object("scratch", 16, MemScope::kLocal);
  pb.program().objects[scratch].initial_data = {0x11};
  ReuseProgram r;
  {
    auto fb = pb.function("dirty_trap", 0);
    auto v = fb.const_u64(77);
    fb.store(scratch, fb.const_u64(0), v, 0, 1);
    fb.ret(fb.divu(v, fb.const_u64(0)));
    r.trap_fn = fb.finish();
  }
  {
    auto fb = pb.function("dirty_yield", 0);
    auto v = fb.const_u64(77);
    fb.store(scratch, fb.const_u64(0), v, 0, 1);
    fb.ret(fb.ext_call(0, v, v));
    r.yield_fn = fb.finish();
  }
  {
    auto fb = pb.function("probe", 0);
    auto unset = fb.reg();
    auto first = fb.load(scratch, fb.const_u64(0), 0, 1);
    fb.ret(fb.add(first, unset));
    r.probe_fn = fb.finish();
  }
  r.program = pb.take();
  return r;
}

TEST(InterpReuse, PooledMachineStartsCleanAfterTrapAndAbort) {
  const ReuseProgram rp = reuse_program();
  auto image = Executable::build(rp.program, CostModel::npu());
  ASSERT_TRUE(image.ok()) << image.error().message;
  ObjectStore store(rp.program);
  Machine fresh(image.value(), &store);
  const Outcome clean = fresh.run_function(rp.probe_fn, Invocation{});
  ASSERT_EQ(clean.state, RunState::kDone);
  EXPECT_EQ(clean.return_value, 0x11u);

  Machine pooled(image.value(), &store);
  EXPECT_EQ(pooled.run_function(rp.trap_fn, Invocation{}).state,
            RunState::kTrap);
  Outcome out = pooled.run_function(rp.probe_fn, Invocation{});
  ASSERT_EQ(out.state, RunState::kDone);
  EXPECT_EQ(out.return_value, clean.return_value);
  EXPECT_EQ(out.cycles, clean.cycles);
  EXPECT_EQ(out.instructions, clean.instructions);

  ASSERT_EQ(pooled.run_function(rp.yield_fn, Invocation{}).state,
            RunState::kYield);
  EXPECT_TRUE(pooled.suspended());
  pooled.abort();
  EXPECT_FALSE(pooled.suspended());
  out = pooled.run_function(rp.probe_fn, Invocation{});
  ASSERT_EQ(out.state, RunState::kDone);
  EXPECT_EQ(out.return_value, clean.return_value);
  EXPECT_EQ(out.cycles, clean.cycles);
}

TEST(InterpReuse, BareProgramMachinesShareTheStoreImage) {
  // Machines built per invocation over one program and its store lower
  // the program once; results match a single reused Machine's.
  const ReuseProgram rp = reuse_program();
  ObjectStore store(rp.program);
  Machine reused(rp.program, CostModel::npu(), &store);
  for (int i = 0; i < 3; ++i) {
    Machine each(rp.program, CostModel::npu(), &store);
    EXPECT_EQ(&each.image(), &reused.image());
    const Outcome a = each.run_function(rp.probe_fn, Invocation{});
    const Outcome b = reused.run_function(rp.probe_fn, Invocation{});
    EXPECT_EQ(a.return_value, b.return_value);
    EXPECT_EQ(a.cycles, b.cycles);
  }
  // Another cost model gets its own image.
  Machine host(rp.program, CostModel::host_native(), &store);
  EXPECT_NE(&host.image(), &reused.image());
}

// Property: dynamic cycle count is monotone under appended busywork.
class CycleMonotoneTest : public ::testing::TestWithParam<int> {};

TEST_P(CycleMonotoneTest, MoreWorkMoreCycles) {
  const int extra = GetParam();
  auto build = [](int busywork) {
    ProgramBuilder pb("t");
    auto fb = pb.function("f", 0);
    auto acc = fb.const_u64(1);
    for (int i = 0; i < busywork; ++i) acc = fb.add_imm(acc, 1);
    fb.ret(acc);
    const auto idx = fb.finish();
    Program p = pb.take();
    ObjectStore store(p);
    Machine m(p, CostModel::npu(), &store);
    Invocation inv;
    return m.run_function(idx, inv).cycles;
  };
  EXPECT_LT(build(extra), build(extra + 10));
}

INSTANTIATE_TEST_SUITE_P(Sizes, CycleMonotoneTest,
                         ::testing::Values(0, 5, 50, 500));

}  // namespace
}  // namespace lnic::microc
