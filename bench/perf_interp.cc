// Wall-clock speed of the Micro-C interpreter itself.
//
// Compiles the standard four-lambda firmware, then for each lambda runs
// N invocations on one Machine (the program is lowered once, on the
// first run) and reports host nanoseconds per interpreted instruction
// and instructions per second. Each lambda is timed --reps times; the
// JSON records the median, min and max, next to the deterministic
// per-invocation instruction and cycle counts and a hash of the response
// bytes of one more run after the timed ones, all of which
// tools/check_perf.py checks exactly: a host-side shortcut (such as the
// interpreter's hash memo) must not change what the lambda returns or
// what it costs in simulated cycles. KV lambdas yield once per
// invocation and are resumed with a fixed reply, so the suspend/resume
// path is inside the timing.
//
// Uses only the interpreter's long-standing public API (Machine over a
// Program), so the same source times older interpreters too.
//
// Usage: perf_interp [--smoke] [--reps N]
//   (smoke: 10x fewer invocations, for CI; reps defaults to 5)
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "bench/harness.h"
#include "common/hash.h"
#include "compiler/pipeline.h"
#include "microc/interp.h"
#include "proto/invocation.h"
#include "workloads/image.h"
#include "workloads/lambdas.h"

namespace lnic::bench {
namespace {

using Clock = std::chrono::steady_clock;

struct Lambda {
  const char* name;
  WorkloadId wid;
  std::vector<std::uint8_t> body;
};

struct Timing {
  std::vector<double> ns_per_instr;  // one per rep
  std::uint64_t instructions = 0;    // per invocation (deterministic)
  std::uint64_t cycles = 0;          // per invocation (deterministic)
  std::uint32_t response_fnv = 0;    // see response_fnv()
};

// FNV-1a of the response bytes, xor-folded to 29 bits (the width of the
// values tools/check_perf.py records).
std::uint32_t response_fnv(const std::vector<std::uint8_t>& bytes) {
  const std::uint64_t h = fnv1a(bytes.data(), bytes.size());
  return static_cast<std::uint32_t>((h ^ (h >> 29) ^ (h >> 58)) &
                                    0x1FFFFFFFu);
}

microc::Outcome run_to_completion(microc::Machine& machine,
                                  const microc::Invocation& inv) {
  microc::Outcome out = machine.run(inv);
  while (out.state == microc::RunState::kYield) {
    out = machine.resume(out.ext.key + 1);
  }
  return out;
}

Timing time_lambda(const microc::Program& program, const Lambda& lambda,
                   std::uint64_t invocations, int reps) {
  net::LambdaHeader header;
  header.workload_id = lambda.wid;
  header.request_id = 1;
  const microc::Invocation inv =
      proto::build_invocation(header, /*src=*/1, BufferView(lambda.body));
  microc::ObjectStore store(program);
  microc::Machine machine(program, microc::CostModel::npu(), &store);

  Timing timing;
  for (int rep = 0; rep < reps; ++rep) {
    std::uint64_t instructions = 0;
    std::uint64_t cycles = 0;
    const auto t0 = Clock::now();
    for (std::uint64_t i = 0; i < invocations; ++i) {
      const microc::Outcome out = run_to_completion(machine, inv);
      instructions += out.instructions;
      cycles += out.cycles;
    }
    const double ns =
        std::chrono::duration<double, std::nano>(Clock::now() - t0).count();
    timing.ns_per_instr.push_back(ns / static_cast<double>(instructions));
    timing.instructions = instructions / invocations;
    timing.cycles = cycles / invocations;
  }
  timing.response_fnv = response_fnv(run_to_completion(machine, inv).response);
  return timing;
}

int run(std::uint64_t invocations, int reps) {
  print_header("Perf: Micro-C interpreter ns per instruction");
  auto bundle = workloads::make_standard_workloads();
  auto compiled = compiler::compile(bundle.spec, std::move(bundle.lambdas));
  if (!compiled.ok()) return bench_fail(compiled.error().message);
  const microc::Program& program = compiled.value().program;

  const workloads::Image image = workloads::make_test_image(64, 64, 7);
  const std::vector<Lambda> lambdas = {
      {"web_server", workloads::kWebServerId, workloads::encode_web_request(1)},
      {"kv_client_get", workloads::kKvGetId,
       workloads::encode_kv_request(0xABCDEF)},
      {"kv_client_set", workloads::kKvSetId,
       workloads::encode_kv_request(42, 99)},
      {"image_transformer", workloads::kImageId,
       workloads::encode_image_request(image.width, image.height,
                                       image.rgba)},
  };

  BenchSummary out("perf_interp");
  out.add("invocations", static_cast<double>(invocations), "count");
  out.add("reps", reps, "count");
  std::printf("\n  %-18s %10s %10s %10s %12s %10s\n", "lambda", "instr/op",
              "ns/instr", "(min)", "(max)", "Minstr/s");
  for (const Lambda& lambda : lambdas) {
    const Timing t = time_lambda(program, lambda, invocations, reps);
    const Spread ns = spread_of(t.ns_per_instr);
    const double mid = ns.median;
    std::printf("  %-18s %10llu %10.3f %10.3f %12.3f %10.1f\n", lambda.name,
                static_cast<unsigned long long>(t.instructions), mid, ns.min,
                ns.max, 1e3 / mid);
    const std::string key = lambda.name;
    out.add(key + "_instructions", static_cast<double>(t.instructions),
            "instr");
    out.add(key + "_cycles", static_cast<double>(t.cycles), "cycles");
    out.add(key + "_response_fnv", static_cast<double>(t.response_fnv),
            "hash");
    out.add(key + "_ns_per_instr", mid, "ns");
    out.add(key + "_ns_per_instr_min", ns.min, "ns");
    out.add(key + "_ns_per_instr_max", ns.max, "ns");
    out.add(key + "_instr_per_sec", 1e9 / mid, "instr/s");
  }
  return 0;
}

}  // namespace
}  // namespace lnic::bench

int main(int argc, char** argv) {
  std::uint64_t invocations = 20000;
  int reps = 5;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      invocations = 2000;
    } else if (std::strcmp(argv[i], "--reps") == 0 && i + 1 < argc) {
      reps = std::max(1, std::atoi(argv[++i]));
    }
  }
  return lnic::bench::run(invocations, reps);
}
