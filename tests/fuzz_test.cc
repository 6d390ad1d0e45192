// Randomized robustness suites:
//  - random Micro-C *source* programs (loops, branches, memory) compiled
//    and executed: the frontend+verifier must accept them, execution must
//    be deterministic, and every optimization combination must preserve
//    results;
//  - random byte strings fed to the lexer/parser/deserializer: they must
//    reject garbage with errors, never crash or accept nonsense.
#include <gtest/gtest.h>

#include <string>

#include "common/rng.h"
#include "compiler/const_fold.h"
#include "compiler/dce.h"
#include "compiler/inline.h"
#include "microc/frontend.h"
#include "microc/interp.h"
#include "microc/lexer.h"
#include "microc/parser.h"
#include "microc/serialize.h"
#include "microc/verify.h"
#include "random_programs.h"

namespace lnic::microc {
namespace {

Outcome run_program(const Program& p) {
  ObjectStore store(p);
  Machine machine(p, CostModel::npu(), &store);
  machine.set_fuel(10'000'000);
  Invocation inv;
  return machine.run_function(p.function_index("f"), inv);
}

class RandomSourceTest : public ::testing::TestWithParam<int> {};

TEST_P(RandomSourceTest, CompilesRunsDeterministicallyAndOptimizesSafely) {
  Rng rng(fuzz::random_program_seed(GetParam()));
  const std::string source = fuzz::random_program(rng);
  auto program = compile_microc(source);
  ASSERT_TRUE(program.ok()) << program.error().message << "\n" << source;

  const Outcome first = run_program(program.value());
  ASSERT_EQ(first.state, RunState::kDone) << source;
  const Outcome second = run_program(program.value());
  EXPECT_EQ(first.return_value, second.return_value);  // deterministic
  EXPECT_EQ(first.cycles, second.cycles);

  // Every optimization combination preserves the result.
  for (int mask = 1; mask < 4; ++mask) {
    Program optimized = program.value();
    if (mask & 1) {
      compiler::fold_constants(optimized);
      compiler::eliminate_dead_code(optimized);
    }
    if (mask & 2) {
      compiler::inline_functions(optimized);
      compiler::eliminate_dead_code(optimized);
    }
    ASSERT_TRUE(verify(optimized).ok()) << "mask=" << mask << "\n" << source;
    const Outcome out = run_program(optimized);
    ASSERT_EQ(out.state, RunState::kDone);
    EXPECT_EQ(out.return_value, first.return_value)
        << "mask=" << mask << "\n" << source;
    EXPECT_EQ(out.response, first.response);
  }

  // Serialization round trip preserves execution too.
  auto restored = deserialize(serialize(program.value()));
  ASSERT_TRUE(restored.ok());
  EXPECT_EQ(run_program(restored.value()).return_value, first.return_value);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomSourceTest, ::testing::Range(1, 33));

// ---------------------------------------------------- garbage resilience

class GarbageInputTest : public ::testing::TestWithParam<int> {};

TEST_P(GarbageInputTest, LexerParserRejectGracefully) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 31337 + 1);
  // Printable-ish garbage, sometimes with valid-looking fragments mixed in.
  std::string input;
  const int len = 1 + static_cast<int>(rng.next_below(200));
  static const char* fragments[] = {"int ", "var ", "{", "}", "(", ")",
                                    ";",    "= ",   "f", "0x", "while"};
  for (int i = 0; i < len; ++i) {
    if (rng.next_bool(0.3)) {
      input += fragments[rng.next_below(11)];
    } else {
      input += static_cast<char>(32 + rng.next_below(95));
    }
  }
  // Must terminate and either succeed (unlikely) or return an error;
  // never crash.
  auto tokens = lex(input);
  if (!tokens.ok()) return;
  auto unit = parse(tokens.value());
  if (!unit.ok()) return;
  SUCCEED();
}

INSTANTIATE_TEST_SUITE_P(Seeds, GarbageInputTest, ::testing::Range(1, 25));

class GarbageFirmwareTest : public ::testing::TestWithParam<int> {};

TEST_P(GarbageFirmwareTest, DeserializerRejectsCorruptedImages) {
  // Start from a valid image and corrupt random bytes: deserialize must
  // either reject it or produce a program (which verify then screens).
  auto program = compile_microc("int f() { return 1 + 2; }");
  ASSERT_TRUE(program.ok());
  auto bytes = serialize(program.value());
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 271 + 9);
  const int corruptions = 1 + static_cast<int>(rng.next_below(8));
  for (int i = 0; i < corruptions; ++i) {
    bytes[rng.next_below(bytes.size())] ^=
        static_cast<std::uint8_t>(1 + rng.next_below(255));
  }
  auto restored = deserialize(bytes);
  if (restored.ok()) {
    // Structurally plausible: the verifier is the next gate, and the
    // interpreter's traps are the last. None of these may crash.
    (void)verify(restored.value());
  }
  SUCCEED();
}

INSTANTIATE_TEST_SUITE_P(Seeds, GarbageFirmwareTest, ::testing::Range(1, 25));

}  // namespace
}  // namespace lnic::microc
