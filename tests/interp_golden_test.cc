// Golden outcomes of the Micro-C interpreter: every standard lambda over
// several payloads and cost models, the web farm, every random source
// program the fuzz suite compiles (as compiled and after a serialization
// round trip), and fuel sweeps that trap at many points mid-block and on
// block boundaries. The expected file records, per run, the final state,
// return value, response hash and length, cycles, instruction count,
// trap message and every external call the run yielded. A change to the
// interpreter must reproduce it line for line; on a mismatch the actual
// lines are written to interp_outcomes.actual.txt in the working
// directory for diffing.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common/rng.h"
#include "compiler/pipeline.h"
#include "microc/frontend.h"
#include "microc/interp.h"
#include "microc/serialize.h"
#include "proto/invocation.h"
#include "random_programs.h"
#include "workloads/image.h"
#include "workloads/lambdas.h"

namespace lnic::microc {
namespace {

std::uint64_t fnv1a(const std::vector<std::uint8_t>& bytes) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const std::uint8_t b : bytes) {
    h ^= b;
    h *= 0x100000001b3ull;
  }
  return h;
}

const char* state_name(RunState state) {
  switch (state) {
    case RunState::kDone: return "done";
    case RunState::kYield: return "yield";
    case RunState::kTrap: return "trap";
  }
  return "?";
}

// Runs one invocation to completion, answering every external call with
// a reply derived from its key and value, and renders the outcome.
std::string record(const std::string& name, Machine& machine, Outcome out) {
  std::ostringstream line;
  line << name;
  while (out.state == RunState::kYield) {
    line << " yield(" << out.ext.kind << "," << out.ext.key << ","
         << out.ext.value << "@" << out.cycles << "/" << out.instructions
         << ")";
    out = machine.resume(out.ext.key * 31 + out.ext.value + 7);
  }
  line << " " << state_name(out.state) << " ret=" << out.return_value
       << " cycles=" << out.cycles << " instr=" << out.instructions
       << " resp=" << out.response.size() << ":" << std::hex
       << fnv1a(out.response) << std::dec;
  if (out.state == RunState::kTrap) {
    line << " trap=\"" << out.trap_message << "\"";
  }
  return line.str();
}

Invocation request(WorkloadId wid, const std::vector<std::uint8_t>& body,
                   std::uint64_t request_id) {
  net::LambdaHeader header;
  header.workload_id = wid;
  header.request_id = request_id;
  return proto::build_invocation(header, /*src=*/3, BufferView(body));
}

struct Payload {
  std::string name;
  WorkloadId wid;
  std::vector<std::uint8_t> body;
};

std::vector<Payload> standard_payloads() {
  using namespace workloads;
  std::vector<Payload> out;
  for (std::uint64_t op : {0ull, 1ull, 2ull, 3ull, 7ull}) {
    out.push_back({"web" + std::to_string(op), kWebServerId,
                   encode_web_request(op)});
  }
  for (std::uint64_t key : {0ull, 1ull, 0xABCDEFull, 0x8000000000000005ull}) {
    out.push_back({"get" + std::to_string(key), kKvGetId,
                   encode_kv_request(key)});
  }
  for (std::uint64_t key : {0ull, 42ull, 123456789ull}) {
    out.push_back({"set" + std::to_string(key), kKvSetId,
                   encode_kv_request(key, key * 3 + 1)});
  }
  const std::pair<std::uint32_t, std::uint32_t> sizes[] = {
      {1, 1}, {4, 4}, {16, 8}, {33, 3}};
  for (const auto& [w, h] : sizes) {
    const Image img = make_test_image(w, h, w + h);
    out.push_back({"img" + std::to_string(w) + "x" + std::to_string(h),
                   kImageId, encode_image_request(w, h, img.rgba)});
  }
  out.push_back({"unknown", 99, encode_web_request(1)});
  out.push_back({"empty_body", kKvGetId, {}});
  return out;
}

void add_bundle_runs(std::vector<std::string>& lines, const std::string& tag,
                     const Program& program,
                     const std::vector<Payload>& payloads) {
  struct Model {
    const char* name;
    CostModel cost;
  };
  const Model models[] = {{"npu", CostModel::npu()},
                          {"native", CostModel::host_native()},
                          {"python", CostModel::host_python()}};
  for (const Model& model : models) {
    // One machine and one store per cost model: globals (the web
    // server's request counter) persist across the sequence.
    ObjectStore store(program);
    Machine machine(program, model.cost, &store);
    std::uint64_t id = 1;
    for (const Payload& p : payloads) {
      const Invocation inv = request(p.wid, p.body, id++);
      lines.push_back(record(tag + "/" + model.name + "/" + p.name, machine,
                             machine.run(inv)));
    }
  }
}

// Fuel sweeps: each run gets a fresh machine and a cycle budget, so the
// fuel trap lands at many points inside and between blocks.
void add_fuel_sweep(std::vector<std::string>& lines, const std::string& tag,
                    const Program& program, const Payload& p,
                    std::uint64_t step, std::uint64_t limit) {
  ObjectStore store(program);
  for (std::uint64_t fuel = 0; fuel <= limit; fuel += step) {
    Machine machine(program, CostModel::npu(), &store);
    machine.set_fuel(fuel);
    const Invocation inv = request(p.wid, p.body, 1);
    lines.push_back(record(tag + "/fuel" + std::to_string(fuel) + "/" + p.name,
                           machine, machine.run(inv)));
  }
}

std::string run_fuzz_program(const std::string& name, const Program& p,
                             std::uint64_t fuel) {
  ObjectStore store(p);
  Machine machine(p, CostModel::npu(), &store);
  machine.set_fuel(fuel);
  Invocation inv;
  return record(name, machine,
                machine.run_function(p.function_index("f"), inv));
}

std::vector<std::string> golden_outcomes() {
  std::vector<std::string> lines;
  const auto payloads = standard_payloads();

  for (const bool optimized : {true, false}) {
    auto bundle = workloads::make_standard_workloads();
    auto compiled = compiler::compile(
        bundle.spec, std::move(bundle.lambdas),
        optimized ? compiler::Options{} : compiler::Options::none());
    EXPECT_TRUE(compiled.ok());
    if (!compiled.ok()) return lines;
    const Program& program = compiled.value().program;
    const std::string tag = optimized ? "std" : "naive";
    add_bundle_runs(lines, tag, program, payloads);
    add_fuel_sweep(lines, tag, program, payloads[1], 250, 8000);
    add_fuel_sweep(lines, tag, program, payloads[5], 500, 9000);
    add_fuel_sweep(lines, tag, program, payloads[12], 1000, 12000);
  }

  {
    auto farm = workloads::make_web_farm(3);
    auto compiled = compiler::compile(farm.spec, std::move(farm.lambdas));
    EXPECT_TRUE(compiled.ok());
    if (!compiled.ok()) return lines;
    std::vector<Payload> farm_payloads;
    for (WorkloadId wid = 1; wid <= 3; ++wid) {
      for (std::uint64_t op = 0; op < 4; ++op) {
        farm_payloads.push_back(
            {"w" + std::to_string(wid) + "op" + std::to_string(op), wid,
             workloads::encode_web_request(op)});
      }
    }
    add_bundle_runs(lines, "farm", compiled.value().program, farm_payloads);
  }

  // The programs RandomSourceTest compiles, plus fuel sweeps over the
  // first few (their loops make many small blocks).
  for (int param = 1; param < 33; ++param) {
    Rng rng(fuzz::random_program_seed(param));
    const std::string source = fuzz::random_program(rng);
    auto program = compile_microc(source);
    EXPECT_TRUE(program.ok());
    if (!program.ok()) return lines;
    const std::string tag = "fuzz" + std::to_string(param);
    lines.push_back(
        run_fuzz_program(tag + "/src", program.value(), 10'000'000));
    auto restored = deserialize(serialize(program.value()));
    EXPECT_TRUE(restored.ok());
    if (!restored.ok()) return lines;
    lines.push_back(
        run_fuzz_program(tag + "/restored", restored.value(), 10'000'000));
    if (param <= 4) {
      for (std::uint64_t fuel = 0; fuel <= 400; fuel += 7) {
        lines.push_back(run_fuzz_program(tag + "/fuel" + std::to_string(fuel),
                                         program.value(), fuel));
      }
    }
  }
  return lines;
}

TEST(InterpGolden, ReproducesRecordedOutcomes) {
  const std::vector<std::string> actual = golden_outcomes();
  std::ifstream in(LNIC_GOLDEN_PATH);
  ASSERT_TRUE(in.good()) << "missing " << LNIC_GOLDEN_PATH;
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
    std::ofstream dump("interp_outcomes.actual.txt");
    for (const auto& line : actual) dump << line << "\n";
    FAIL() << mismatches << " of " << expected.size()
           << " outcomes differ; actual lines in interp_outcomes.actual.txt";
  }
  EXPECT_GT(expected.size(), 500u);
}

}  // namespace
}  // namespace lnic::microc
