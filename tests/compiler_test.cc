// Tests for the compiler passes: DCE, coalescing, match reduction,
// stratification, and the full pipeline — including differential tests
// that optimization preserves observable behaviour and a golden file
// pinning the exact firmware the pipeline emits for every bundle.
#include <gtest/gtest.h>

#include <fstream>
#include <functional>
#include <sstream>
#include <string>
#include <vector>

#include "backends/backend.h"
#include "compiler/analysis.h"
#include "compiler/coalesce.h"
#include "compiler/dce.h"
#include "compiler/pipeline.h"
#include "compiler/stratify.h"
#include "microc/builder.h"
#include "microc/interp.h"
#include "microc/serialize.h"
#include "microc/verify.h"
#include "nicsim/nic.h"
#include "p4/p4.h"
#include "workloads/lambdas.h"
#include "workloads/split.h"

namespace lnic::compiler {
namespace {

using microc::HeaderField;
using microc::Invocation;
using microc::Machine;
using microc::MemRegion;
using microc::MemScope;
using microc::ObjectStore;
using microc::Outcome;
using microc::PlacementHint;
using microc::Program;
using microc::ProgramBuilder;
using microc::RunState;

Outcome run_fn(const Program& p, std::size_t fn, const Invocation& inv = {}) {
  ObjectStore store(p);
  Machine m(p, microc::CostModel::npu(), &store);
  return m.run_function(fn, inv);
}

TEST(Dce, RemovesUnusedPureInstructions) {
  ProgramBuilder pb("t");
  auto fb = pb.function("f", 0);
  auto used = fb.const_u64(10);
  auto dead1 = fb.const_u64(99);
  auto dead2 = fb.add_imm(dead1, 1);
  (void)dead2;
  fb.ret(used);
  const auto idx = fb.finish();
  Program p = pb.take();
  const auto before = p.functions[idx].instr_count();
  const auto removed = eliminate_dead_code(p);
  EXPECT_EQ(removed, 2u);
  EXPECT_EQ(p.functions[idx].instr_count(), before - 2);
  EXPECT_EQ(run_fn(p, idx).return_value, 10u);
}

TEST(Dce, TransitiveDeadChainsRemoved) {
  ProgramBuilder pb("t");
  auto fb = pb.function("f", 0);
  auto a = fb.const_u64(1);
  auto b = fb.add_imm(a, 1);
  auto c = fb.add_imm(b, 1);
  auto d = fb.add_imm(c, 1);
  (void)d;  // whole chain dead
  fb.ret_imm(7);
  const auto idx = fb.finish();
  Program p = pb.take();
  EXPECT_EQ(eliminate_dead_code(p), 4u);
  EXPECT_EQ(run_fn(p, idx).return_value, 7u);
}

TEST(Dce, KeepsInstructionsWithSideEffects) {
  ProgramBuilder pb("t");
  const auto obj = pb.object("buf", 16, MemScope::kGlobal);
  auto fb = pb.function("f", 0);
  auto off = fb.const_u64(0);
  auto v = fb.const_u64(42);
  fb.store(obj, off, v);  // side effect: must stay
  fb.ret_imm(0);
  const auto idx = fb.finish();
  Program p = pb.take();
  EXPECT_EQ(eliminate_dead_code(p), 0u);
  (void)idx;
}

TEST(Dce, RemovesUnreachableBlocks) {
  ProgramBuilder pb("t");
  auto fb = pb.function("f", 0);
  const auto dead = fb.block();
  const auto live = fb.block();
  fb.select_block(0);
  fb.br(live);
  fb.select_block(dead);
  auto x = fb.const_u64(1);
  fb.ret(x);
  fb.select_block(live);
  fb.ret_imm(5);
  const auto idx = fb.finish();
  Program p = pb.take();
  EXPECT_GT(eliminate_dead_code(p), 0u);
  ASSERT_TRUE(microc::verify(p).ok());
  EXPECT_EQ(run_fn(p, idx).return_value, 5u);
}

TEST(Dce, DeadLoadRemovedDeadStoreKept) {
  ProgramBuilder pb("t");
  const auto obj = pb.object("buf", 16, MemScope::kGlobal);
  auto fb = pb.function("f", 0);
  auto off = fb.const_u64(0);
  auto unused = fb.load(obj, off);  // pure -> removable
  (void)unused;
  fb.ret_imm(1);
  const auto idx = fb.finish();
  Program p = pb.take();
  // The load and its (now-dead) offset const... the const feeds nothing
  // else, so both go.
  EXPECT_EQ(eliminate_dead_code(p), 2u);
  EXPECT_EQ(run_fn(p, idx).return_value, 1u);
}

TEST(Coalesce, MergesIdenticalHelpers) {
  ProgramBuilder pb("t");
  auto make_helper = [&](const std::string& name) {
    auto fb = pb.function(name, 1);
    auto x = fb.mul_imm(fb.arg(0), 7);
    auto y = fb.add_imm(x, 3);
    fb.ret(y);
    return fb.finish();
  };
  const auto h1 = make_helper("helper_copy_a");
  const auto h2 = make_helper("helper_copy_b");
  auto main = pb.function("main", 0);
  auto a = main.const_u64(1);
  auto r1 = main.call(h1, {a});
  auto r2 = main.call(h2, {r1});
  main.ret(r2);
  const auto main_idx = main.finish();
  Program p = pb.take();
  const auto before_fns = p.functions.size();
  EXPECT_EQ(coalesce_lambdas(p), 1u);
  EXPECT_EQ(p.functions.size(), before_fns - 1);
  ASSERT_TRUE(microc::verify(p).ok());
  // (1*7+3)=10 -> (10*7+3)=73
  EXPECT_EQ(run_fn(p, p.function_index("main")).return_value, 73u);
  (void)main_idx;
}

TEST(Coalesce, DifferentBodiesNotMerged) {
  ProgramBuilder pb("t");
  auto f1 = pb.function("f1", 1);
  f1.ret(f1.mul_imm(f1.arg(0), 7));
  f1.finish();
  auto f2 = pb.function("f2", 1);
  f2.ret(f2.mul_imm(f2.arg(0), 8));
  f2.finish();
  Program p = pb.take();
  EXPECT_EQ(coalesce_lambdas(p), 0u);
  EXPECT_EQ(p.functions.size(), 2u);
}

TEST(Coalesce, RemapsLambdaEntriesAndDispatch) {
  ProgramBuilder pb("t");
  auto dup1 = pb.function("dup1", 0);
  dup1.ret_imm(4);
  const auto d1 = dup1.finish();
  auto dup2 = pb.function("dup2", 0);
  dup2.ret_imm(4);
  const auto d2 = dup2.finish();
  auto dispatch = pb.function("dispatch", 0);
  auto r = dispatch.call(d2, {});
  dispatch.ret(r);
  const auto disp = dispatch.finish();
  Program p = pb.take();
  p.dispatch_function = disp;
  p.lambda_entries = {{1, d1}, {2, d2}};
  EXPECT_EQ(coalesce_lambdas(p), 1u);
  // Both entries now reference the surviving copy.
  EXPECT_EQ(p.lambda_entries[0].second, p.lambda_entries[1].second);
  EXPECT_EQ(run_fn(p, p.dispatch_function).return_value, 4u);
}

TEST(Stratify, HonoursPragmasAndCapacities) {
  ProgramBuilder pb("t");
  const auto hot = pb.object("hot", 64, MemScope::kGlobal,
                             microc::AccessPattern::kReadMostly,
                             PlacementHint::kHot);
  const auto cold = pb.object("cold", 64, MemScope::kGlobal,
                              microc::AccessPattern::kReadMostly,
                              PlacementHint::kCold);
  const auto big = pb.object("big", 1_MiB, MemScope::kGlobal);
  auto fb = pb.function("f", 0);
  auto off = fb.const_u64(0);
  // Touch all three so access estimates are nonzero.
  auto a = fb.load(hot, off);
  auto b = fb.load(cold, off);
  auto c = fb.load(big, off);
  fb.ret(fb.add(a, fb.add(b, c)));
  fb.finish();
  Program p = pb.take();
  stratify_memory(p);
  EXPECT_EQ(p.objects[hot].region, MemRegion::kLocal);
  EXPECT_EQ(p.objects[cold].region, MemRegion::kEmem);
  // 1 MiB exceeds local (4K) and CTM (256K) budgets -> IMEM.
  EXPECT_EQ(p.objects[big].region, MemRegion::kImem);
}

TEST(Stratify, UntouchedObjectsStayInEmem) {
  ProgramBuilder pb("t");
  const auto unused = pb.object("unused", 64, MemScope::kGlobal);
  auto fb = pb.function("f", 0);
  fb.ret_imm(0);
  fb.finish();
  Program p = pb.take();
  stratify_memory(p);
  EXPECT_EQ(p.objects[unused].region, MemRegion::kEmem);
}

TEST(Stratify, ReducesCodeSize) {
  ProgramBuilder pb("t");
  const auto obj = pb.object("buf", 128, MemScope::kGlobal);
  auto fb = pb.function("f", 0);
  auto off = fb.const_u64(0);
  auto acc = fb.load(obj, off);
  for (int i = 1; i < 10; ++i) {
    acc = fb.add(acc, fb.load(obj, off, i * 8));
  }
  fb.ret(acc);
  fb.finish();
  Program p = pb.take();
  const auto before = microc::code_size(p);
  stratify_memory(p);
  EXPECT_LT(microc::code_size(p), before);
}

TEST(Analysis, AccessEstimateCountsBothOperands) {
  ProgramBuilder pb("t");
  const auto a = pb.object("a", 64, MemScope::kGlobal);
  const auto b = pb.object("b", 64, MemScope::kGlobal);
  auto fb = pb.function("f", 0);
  auto off = fb.const_u64(0);
  auto len = fb.const_u64(8);
  fb.memcpy_(a, off, b, off, len);
  fb.ret_imm(0);
  fb.finish();
  Program p = pb.take();
  estimate_object_accesses(p);
  EXPECT_EQ(p.objects[a].access_estimate, 1u);
  EXPECT_EQ(p.objects[b].access_estimate, 1u);
}

// -- Full pipeline tests over a realistic multi-lambda job. ------------

// Builds lambdas with deliberate duplication (shared helper bodies) and
// memory objects, mirroring §6.4's four-lambda job in miniature.
struct Job {
  p4::MatchSpec spec;
  Program lambdas;
};

Job make_job() {
  ProgramBuilder pb("job");
  const auto content = pb.object("content", 256, MemScope::kGlobal,
                                 microc::AccessPattern::kReadMostly);

  // Identical "reply helper" duplicated across both lambdas (as users
  // copy boilerplate); coalescing should merge them.
  auto make_reply_helper = [&](const std::string& name) {
    auto fb = pb.function(name, 1);
    auto x = fb.arg(0);
    for (int i = 0; i < 20; ++i) x = fb.add_imm(x, 1);
    fb.ret(x);
    return fb.finish();
  };
  const auto helper1 = make_reply_helper("reply_helper_1");
  const auto helper2 = make_reply_helper("reply_helper_2");

  {
    auto fb = pb.function("wl_alpha", 0);
    auto key = fb.load_hdr(microc::kHdrKey);
    auto dead = fb.mul_imm(key, 3);  // dead code for DCE
    (void)dead;
    auto off = fb.const_u64(0);
    auto v = fb.load(content, off);
    auto r = fb.call(helper1, {fb.add(key, v)});
    fb.resp_word(r);
    fb.ret(r);
    fb.finish();
  }
  {
    auto fb = pb.function("wl_beta", 0);
    auto op = fb.load_hdr(microc::kHdrOp);
    auto off = fb.const_u64(8);
    auto v = fb.load(content, off);
    auto r = fb.call(helper2, {fb.add(op, v)});
    fb.resp_word(r);
    fb.ret(r);
    fb.finish();
  }

  Job job;
  job.lambdas = pb.take();
  job.spec.tables.push_back(p4::make_lambda_table("wl_alpha", 11));
  job.spec.tables.push_back(p4::make_lambda_table("wl_beta", 12));
  job.spec.tables.push_back(p4::make_route_table("wl_alpha", 11));
  job.spec.tables.push_back(p4::make_route_table("wl_beta", 12));
  return job;
}

Outcome run_request(const Program& p, WorkloadId wid, std::uint64_t key) {
  ObjectStore store(p);
  Machine m(p, microc::CostModel::npu(), &store);
  Invocation inv;
  inv.headers.fields[microc::kHdrWorkloadId] = wid;
  inv.headers.fields[microc::kHdrKey] = key;
  inv.headers.fields[microc::kHdrOp] = key;
  inv.match_data = {1};
  return m.run(inv);
}

TEST(Pipeline, EveryStageShrinksTheProgram) {
  Job job = make_job();
  auto result = compile(job.spec, std::move(job.lambdas));
  ASSERT_TRUE(result.ok()) << result.error().message;
  const auto& stages = result.value().stages;
  ASSERT_EQ(stages.size(), 4u);
  EXPECT_EQ(stages[0].stage, "unoptimized");
  for (std::size_t i = 1; i < stages.size(); ++i) {
    EXPECT_LT(stages[i].code_words, stages[i - 1].code_words)
        << "stage " << stages[i].stage;
  }
}

TEST(Pipeline, OptimizedProgramBehavesIdentically) {
  Job job1 = make_job();
  auto unopt = compile(job1.spec, std::move(job1.lambdas), Options::none());
  ASSERT_TRUE(unopt.ok());
  Job job2 = make_job();
  auto opt = compile(job2.spec, std::move(job2.lambdas));
  ASSERT_TRUE(opt.ok());

  for (const WorkloadId wid : {11u, 12u, 99u}) {
    for (const std::uint64_t key : {0ull, 5ull, 77ull}) {
      const auto a = run_request(unopt.value().program, wid, key);
      const auto b = run_request(opt.value().program, wid, key);
      ASSERT_EQ(a.state, RunState::kDone);
      ASSERT_EQ(b.state, RunState::kDone);
      EXPECT_EQ(a.return_value, b.return_value) << wid << " " << key;
      EXPECT_EQ(a.response, b.response);
    }
  }
}

TEST(Pipeline, OptimizationReducesCycles) {
  Job job1 = make_job();
  auto unopt = compile(job1.spec, std::move(job1.lambdas), Options::none());
  Job job2 = make_job();
  auto opt = compile(job2.spec, std::move(job2.lambdas));
  ASSERT_TRUE(unopt.ok() && opt.ok());
  const auto a = run_request(unopt.value().program, 11, 1);
  const auto b = run_request(opt.value().program, 11, 1);
  EXPECT_LT(b.cycles, a.cycles);
}

TEST(Pipeline, RejectsOverflowingInstructionStore) {
  Job job = make_job();
  Options options;
  options.instruction_store_words = 10;  // absurdly small
  auto result = compile(job.spec, std::move(job.lambdas), options);
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.error().message.find("instruction store"),
            std::string::npos);
}

TEST(Pipeline, StagesCanBeDisabledIndividually) {
  for (int mask = 0; mask < 8; ++mask) {
    Job job = make_job();
    Options options;
    options.run_coalescing = mask & 1;
    options.run_match_reduction = mask & 2;
    options.run_stratification = mask & 4;
    auto result = compile(job.spec, std::move(job.lambdas), options);
    ASSERT_TRUE(result.ok()) << "mask=" << mask;
    const auto out = run_request(result.value().program, 12, 3);
    ASSERT_EQ(out.state, RunState::kDone) << "mask=" << mask;
  }
}

// -- Compiled-firmware golden. ----------------------------------------
//
// Every bundle factory compiled under the option sets the repo's callers
// use: NIC deploy (all stages, the NIC's instruction store), host deploy
// (no stages, unlimited store), the placement layer's per-action
// footprint compiles (all stages, unlimited store) and the memory
// ablation (stratification off). Each line records every stage's code
// size and an FNV-1a digest of the serialized program, or the error of a
// failing compile. A change to the compiler must reproduce the file line
// for line; on a mismatch the actual lines are written to
// compiled_firmware.actual.txt in the working directory for diffing.

std::uint64_t fnv1a(const std::vector<std::uint8_t>& bytes) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const std::uint8_t b : bytes) {
    h ^= b;
    h *= 0x100000001b3ull;
  }
  return h;
}

std::string compile_line(const std::string& name,
                         const workloads::WorkloadBundle& bundle,
                         const Options& options) {
  std::ostringstream line;
  line << name;
  auto compiled = compile(bundle.spec, bundle.lambdas, options);
  if (!compiled.ok()) {
    line << " error=\"" << compiled.error().message << "\"";
    return line.str();
  }
  for (const StageReport& stage : compiled.value().stages) {
    line << " " << stage.stage << "=" << stage.code_words;
  }
  line << " fnv=" << std::hex
       << fnv1a(microc::serialize(compiled.value().program));
  return line.str();
}

std::vector<std::string> compiled_firmware() {
  using workloads::WorkloadBundle;
  workloads::Scale oversize;
  oversize.web_mix_rounds = 6000;  // past the 16 K-word NIC store
  const std::pair<std::string, std::function<WorkloadBundle()>> factories[] = {
      {"standard", [] { return workloads::make_standard_workloads(); }},
      {"oversize",
       [&] { return workloads::make_standard_workloads(oversize); }},
      {"nic_kv_store", [] { return workloads::make_nic_kv_store(); }},
      {"stream_aggregator",
       [] { return workloads::make_stream_aggregator(); }},
      {"web_farm3", [] { return workloads::make_web_farm(3); }},
  };

  Options nic;
  nic.instruction_store_words = nicsim::NicConfig{}.instr_store_words;
  Options host = Options::none();
  host.instruction_store_words = backends::Capacity::kUnlimitedWords;
  Options footprint;
  footprint.instruction_store_words = backends::Capacity::kUnlimitedWords;
  Options flat;
  flat.run_stratification = false;

  std::vector<std::string> lines;
  for (const auto& [name, make] : factories) {
    const WorkloadBundle bundle = make();
    lines.push_back(compile_line(name + "/nic", bundle, nic));
    lines.push_back(compile_line(name + "/host", bundle, host));
    lines.push_back(compile_line(name + "/no-stratify", bundle, flat));
    for (const std::string& action : workloads::bundle_actions(bundle)) {
      lines.push_back(compile_line(name + "/footprint/" + action,
                                   workloads::split_bundle(bundle, {action}),
                                   footprint));
    }
  }
  return lines;
}

TEST(CompilerGolden, ReproducesRecordedFirmware) {
  const std::vector<std::string> actual = compiled_firmware();
  std::ifstream in(LNIC_COMPILED_GOLDEN_PATH);
  ASSERT_TRUE(in.good()) << "missing " << LNIC_COMPILED_GOLDEN_PATH;
  std::vector<std::string> expected;
  for (std::string line; std::getline(in, line);) expected.push_back(line);

  std::size_t mismatches = 0;
  for (std::size_t i = 0; i < std::max(actual.size(), expected.size()); ++i) {
    const std::string got = i < actual.size() ? actual[i] : "<missing>";
    const std::string want = i < expected.size() ? expected[i] : "<missing>";
    if (got != want && ++mismatches <= 5) {
      ADD_FAILURE() << "line " << i + 1 << "\n  expected: " << want
                    << "\n  actual:   " << got;
    }
  }
  if (mismatches > 0) {
    std::ofstream dump("compiled_firmware.actual.txt");
    for (const auto& line : actual) dump << line << "\n";
    FAIL() << mismatches << " of " << expected.size()
           << " lines differ; actual lines in compiled_firmware.actual.txt";
  }
  EXPECT_GT(expected.size(), 20u);
}

}  // namespace
}  // namespace lnic::compiler
