// Tests for the interpreter's `hash` memo (see ObjectStore in
// microc/interp.h): a repeated hash of an unchanged global object gives
// the recorded value at the same simulated cost, every write op empties
// the memo, the memo lives in the store (Machines sharing a store see
// each other's writes; reset() drops it), a Machine resumed after a
// redeploy hashes the new bytes, and fuel traps report what they always
// did.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "microc/builder.h"
#include "microc/interp.h"
#include "microc/ir.h"

namespace lnic::microc {
namespace {

constexpr std::uint64_t kHashLen = 32;

std::uint64_t reference_fnv(const std::vector<std::uint8_t>& bytes,
                            std::size_t len) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (std::size_t i = 0; i < len; ++i) {
    h ^= bytes[i];
    h *= 0x100000001b3ull;
  }
  return h;
}

std::uint64_t word_at(const std::vector<std::uint8_t>& bytes, std::size_t at) {
  std::uint64_t v = 0;
  for (std::size_t i = 0; i < 8; ++i) {
    v |= static_cast<std::uint64_t>(bytes[at + i]) << (8 * i);
  }
  return v;
}

enum class Write { kStore, kMemCpy, kGrayscale, kBodyCopy };

// Objects: a global `page` (the hashed one), a global `src` and `rgba`
// to copy from. Functions:
//  - hash_page: returns the hash of page[0, 32);
//  - write_then_hash[w]: hashes page, writes into it with op w, hashes
//    again, and responds with both hashes;
//  - hash_across_call: hashes page, makes an external call, hashes page
//    again, and responds with both hashes.
struct MemoProgram {
  Program program;
  std::uint16_t page = 0;
  std::uint32_t hash_page = 0;
  std::uint32_t write_then_hash[4] = {};
  std::uint32_t hash_across_call = 0;
};

MemoProgram memo_program(std::uint8_t page_seed, bool extra_object = false) {
  ProgramBuilder pb("memo");
  MemoProgram m;
  m.page = pb.object("page", 64, MemScope::kGlobal);
  const auto src = pb.object("src", 64, MemScope::kGlobal);
  const auto rgba = pb.object("rgba", 64, MemScope::kGlobal);
  if (extra_object) pb.object("extra", 8, MemScope::kGlobal);
  for (std::uint8_t i = 0; i < 64; ++i) {
    pb.program().objects[m.page].initial_data.push_back(
        static_cast<std::uint8_t>(page_seed + i));
    pb.program().objects[src].initial_data.push_back(0xAA);
    pb.program().objects[rgba].initial_data.push_back(
        static_cast<std::uint8_t>(i * 7));
  }
  {
    auto fb = pb.function("hash_page", 0);
    fb.ret(fb.hash(m.page, fb.const_u64(0), fb.const_u64(kHashLen)));
    m.hash_page = fb.finish();
  }
  for (const Write w : {Write::kStore, Write::kMemCpy, Write::kGrayscale,
                        Write::kBodyCopy}) {
    auto fb = pb.function("write_then_hash", 0);
    const Reg zero = fb.const_u64(0);
    const Reg len = fb.const_u64(kHashLen);
    const Reg before = fb.hash(m.page, zero, len);
    const Reg eight = fb.const_u64(8);
    switch (w) {
      case Write::kStore:
        fb.store(m.page, eight, fb.const_u64(0x5555));
        break;
      case Write::kMemCpy:
        fb.memcpy_(m.page, eight, src, zero, eight);
        break;
      case Write::kGrayscale:
        fb.grayscale(m.page, eight, rgba, zero, eight);
        break;
      case Write::kBodyCopy:
        fb.body_copy(m.page, eight, zero, eight);
        break;
    }
    const Reg after = fb.hash(m.page, zero, len);
    fb.resp_word(before);
    fb.resp_word(after);
    fb.ret_imm(0);
    m.write_then_hash[static_cast<int>(w)] = fb.finish();
  }
  {
    auto fb = pb.function("hash_across_call", 0);
    const Reg zero = fb.const_u64(0);
    const Reg len = fb.const_u64(kHashLen);
    const Reg before = fb.hash(m.page, zero, len);
    fb.ext_call(0, before, zero);
    const Reg after = fb.hash(m.page, zero, len);
    fb.resp_word(before);
    fb.resp_word(after);
    fb.ret_imm(0);
    m.hash_across_call = fb.finish();
  }
  m.program = pb.take();
  return m;
}

Invocation body_of_ones() {
  Invocation inv;
  inv.body = BufferView(std::vector<std::uint8_t>(8, 0x01));
  return inv;
}

TEST(HashMemo, RepeatedHashReturnsTheRecordedValueAtTheSameCost) {
  const MemoProgram m = memo_program(3);
  ObjectStore store(m.program);
  Machine machine(m.program, CostModel::npu(), &store);
  const std::uint64_t want = reference_fnv(store.data(m.page), kHashLen);
  const Outcome first = machine.run_function(m.hash_page, Invocation{});
  ASSERT_EQ(first.state, RunState::kDone);
  EXPECT_EQ(first.return_value, want);
  for (int i = 0; i < 3; ++i) {
    const Outcome again = machine.run_function(m.hash_page, Invocation{});
    ASSERT_EQ(again.state, RunState::kDone);
    EXPECT_EQ(again.return_value, want);
    EXPECT_EQ(again.cycles, first.cycles);
    EXPECT_EQ(again.instructions, first.instructions);
  }
  // const, const, hash, ret; the hash reads 4 words of EMEM (150 cycles
  // each) plus 2 ALU cycles per word.
  EXPECT_EQ(first.cycles, 4u + 4u * (150u + 2u));
}

TEST(HashMemo, EveryWriteOpEmptiesTheMemo) {
  const char* const names[] = {"store", "memcpy", "grayscale", "body_copy"};
  for (int w = 0; w < 4; ++w) {
    SCOPED_TRACE(names[w]);
    const MemoProgram m = memo_program(3);
    ObjectStore store(m.program);
    Machine machine(m.program, CostModel::npu(), &store);
    const std::vector<std::uint8_t> initial = store.data(m.page);
    // Warm the memo in an earlier invocation, too.
    ASSERT_EQ(machine.run_function(m.hash_page, Invocation{}).return_value,
              reference_fnv(initial, kHashLen));
    const Outcome out =
        machine.run_function(m.write_then_hash[w], body_of_ones());
    ASSERT_EQ(out.state, RunState::kDone);
    ASSERT_EQ(out.response.size(), 16u);
    ASSERT_NE(store.data(m.page), initial);  // the op did write
    EXPECT_EQ(word_at(out.response, 0), reference_fnv(initial, kHashLen));
    EXPECT_EQ(word_at(out.response, 8),
              reference_fnv(store.data(m.page), kHashLen));
    EXPECT_EQ(machine.run_function(m.hash_page, Invocation{}).return_value,
              reference_fnv(store.data(m.page), kHashLen));
  }
}

TEST(HashMemo, MachinesSharingAStoreSeeEachOthersWrites) {
  const MemoProgram m = memo_program(3);
  ObjectStore store(m.program);
  Machine reader(m.program, CostModel::npu(), &store);
  Machine writer(m.program, CostModel::npu(), &store);
  const std::uint64_t before =
      reader.run_function(m.hash_page, Invocation{}).return_value;
  ASSERT_EQ(writer
                .run_function(m.write_then_hash[static_cast<int>(
                                  Write::kStore)],
                              Invocation{})
                .state,
            RunState::kDone);
  const std::uint64_t after =
      reader.run_function(m.hash_page, Invocation{}).return_value;
  EXPECT_NE(after, before);
  EXPECT_EQ(after, reference_fnv(store.data(m.page), kHashLen));
}

TEST(HashMemo, ResetToOtherInitialDataDropsTheMemo) {
  const MemoProgram a = memo_program(3);
  const MemoProgram b = memo_program(100);
  ObjectStore store(a.program);
  Machine machine(a.program, CostModel::npu(), &store);
  const std::uint64_t hash_a =
      machine.run_function(a.hash_page, Invocation{}).return_value;
  EXPECT_EQ(hash_a, reference_fnv(store.data(a.page), kHashLen));

  store.reset(b.program);
  const std::uint64_t want_b = reference_fnv(store.data(b.page), kHashLen);
  ASSERT_NE(want_b, hash_a);
  // A Machine over the old program reads the store's new bytes, and so
  // does one over the new program.
  EXPECT_EQ(machine.run_function(a.hash_page, Invocation{}).return_value,
            want_b);
  Machine fresh(b.program, CostModel::npu(), &store);
  EXPECT_EQ(fresh.run_function(b.hash_page, Invocation{}).return_value,
            want_b);
}

TEST(HashMemo, ResumeAfterARedeployHashesTheNewBytes) {
  const MemoProgram a = memo_program(3);
  // One more object than `a`, so the store's object table is rebuilt.
  const MemoProgram b = memo_program(100, /*extra_object=*/true);
  ObjectStore store(a.program);
  Machine machine(a.program, CostModel::npu(), &store);
  const std::uint64_t hash_a = reference_fnv(store.data(a.page), kHashLen);
  Outcome out = machine.run_function(a.hash_across_call, Invocation{});
  ASSERT_EQ(out.state, RunState::kYield);
  EXPECT_EQ(out.ext.key, hash_a);

  store.reset(b.program);  // redeployed while the invocation waited
  out = machine.resume(0);
  ASSERT_EQ(out.state, RunState::kDone);
  ASSERT_EQ(out.response.size(), 16u);
  EXPECT_EQ(word_at(out.response, 0), hash_a);
  EXPECT_EQ(word_at(out.response, 8),
            reference_fnv(store.data(b.page), kHashLen));
}

TEST(HashMemo, ResumeAfterARedeployWithoutTheObjectTraps) {
  const MemoProgram a = memo_program(3);
  const Program no_objects = ProgramBuilder("no-objects").take();
  ObjectStore store(a.program);
  Machine machine(a.program, CostModel::npu(), &store);
  Outcome out = machine.run_function(a.hash_across_call, Invocation{});
  ASSERT_EQ(out.state, RunState::kYield);
  store.reset(no_objects);  // the page is gone when the call returns
  out = machine.resume(0);
  ASSERT_EQ(out.state, RunState::kTrap);
  EXPECT_NE(out.trap_message.find("hash out of bounds"), std::string::npos);
}

TEST(HashMemo, LocalObjectsAreHashedFreshEachTime) {
  ProgramBuilder pb("local");
  const auto scratch = pb.object("scratch", 16, MemScope::kLocal);
  auto fb = pb.function("copy_and_hash", 0);
  const Reg zero = fb.const_u64(0);
  const Reg len = fb.const_u64(8);
  fb.body_copy(scratch, zero, zero, len);
  fb.ret(fb.hash(scratch, zero, len));
  const auto fn = fb.finish();
  const Program p = pb.take();
  ObjectStore store(p);
  Machine machine(p, CostModel::npu(), &store);
  for (std::uint8_t fill : {1, 2, 1}) {
    Invocation inv;
    inv.body = BufferView(std::vector<std::uint8_t>(8, fill));
    EXPECT_EQ(machine.run_function(fn, inv).return_value,
              reference_fnv(std::vector<std::uint8_t>(8, fill), 8));
  }
}

// const (1), const (1), hash (1 + bulk), ret (1): the segment costs 4
// scalar cycles, so any budget under that runs it op by op.
TEST(HashMemo, FuelTrapsAtOrBeforeTheHashReportTheSameCounts) {
  const MemoProgram m = memo_program(3);
  struct Case {
    std::uint64_t fuel;
    std::uint64_t cycles;
    std::uint64_t instructions;
  };
  // fuel 0: traps at the second const; fuel 1: at the hash; fuel 2: at
  // the ret, after the hash charged its bulk cycles.
  const Case cases[] = {{0, 1, 1}, {1, 2, 2}, {2, 3 + 4 * (150 + 2), 3}};
  for (const Case& c : cases) {
    SCOPED_TRACE(c.fuel);
    for (const bool warm : {false, true}) {
      ObjectStore store(m.program);
      Machine machine(m.program, CostModel::npu(), &store);
      if (warm) {
        ASSERT_EQ(machine.run_function(m.hash_page, Invocation{}).state,
                  RunState::kDone);
      }
      machine.set_fuel(c.fuel);
      const Outcome out = machine.run_function(m.hash_page, Invocation{});
      ASSERT_EQ(out.state, RunState::kTrap);
      EXPECT_NE(out.trap_message.find("fuel"), std::string::npos);
      EXPECT_EQ(out.cycles, c.cycles);
      EXPECT_EQ(out.instructions, c.instructions);
    }
  }
}

}  // namespace
}  // namespace lnic::microc
