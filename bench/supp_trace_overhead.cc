// Supplementary (ours): the cost of observability.
//
// The tracing layer is bookkeeping outside simulated time, so its
// simulated latency overhead must be exactly zero — the same closed-loop
// run with tracing off and on must produce bit-identical latency
// samples. This bench asserts that, and reports the JSON export time
// (median, min and max of kWallReps exports of the same recorder). The
// wall-clock recording cost per request (span allocation,
// annotation strings) is the benchmark's `trace.overhead_frac`
// (lnicbench/README.md), measured from rescaled medians of repeated
// runs; a single wall sample here swung from -2% to 64% across reruns.
//
// Four rows: tracing off, sampled (1/16 of requests), full (every
// request), and full plus the NPU-grid profiler. All four must agree on
// every simulated statistic. Two more sections cover the rest of the
// observability plane: the flight recorder's per-record wall cost (also
// the median, min and max of kWallReps runs), and
// a 2-shard rerun asserting that shard stall accounting neither
// perturbs the simulation nor breaks its busy+barrier+sync == wall
// identity.
#include <chrono>
#include <cmath>
#include <cstdio>

#include "bench/harness.h"
#include "common/trace.h"
#include "framework/gateway.h"

using namespace lnic;
using namespace lnic::bench;

namespace {

// Repetitions behind each wall-clock figure.
constexpr int kWallReps = 5;

struct RunResult {
  std::uint64_t count = 0;
  double mean_ns = 0.0;
  double p50_ns = 0.0;
  double p99_ns = 0.0;
  std::uint64_t completed = 0;
  std::size_t spans = 0;
  Spread export_ms;  // Chrome JSON serialization of the whole recorder
};

RunResult run(double sample_rate, std::uint64_t total,
              std::uint32_t senders, bool profile = false) {
  sim::Simulator sim;
  net::Network network(sim);
  auto w0 =
      backends::make_backend(backends::BackendKind::kLambdaNic, sim, network);
  auto w1 =
      backends::make_backend(backends::BackendKind::kLambdaNic, sim, network);
  kvstore::CacheServer cache(sim, network);
  w0->set_kv_server(cache.node());
  w1->set_kv_server(cache.node());
  if (!w0->deploy(workloads::make_standard_workloads()).ok()) return {};
  if (!w1->deploy(workloads::make_standard_workloads()).ok()) return {};
  if (profile) {
    dynamic_cast<backends::LambdaNicBackend&>(*w0).nic().enable_profiler();
    dynamic_cast<backends::LambdaNicBackend&>(*w1).nic().enable_profiler();
  }
  sim.run_until(seconds(20));  // firmware load

  framework::Gateway gateway(sim, network);
  gateway.register_function("web_server", workloads::kWebServerId,
                            {w0->node(), w1->node()});

  trace::TraceRecorder recorder;
  if (sample_rate > 0.0) {
    gateway.set_tracer(&recorder, sample_rate);
    w0->set_tracer(&recorder);
    w1->set_tracer(&recorder);
  }

  std::uint64_t issued = 0;
  std::function<void()> issue = [&]() {
    if (issued >= total) return;
    const std::uint64_t i = issued++;
    gateway.invoke("web_server", workloads::encode_web_request(i & 3),
                   [&](Result<proto::RpcResponse>) { issue(); });
  };
  for (std::uint32_t c = 0; c < senders; ++c) issue();
  sim.run();

  RunResult result;
  const Sampler& latency = gateway.latency("web_server");
  result.count = latency.count();
  result.mean_ns = latency.mean();
  result.p50_ns = latency.median();
  result.p99_ns = latency.p99();
  result.completed = w0->completed() + w1->completed();
  result.spans = recorder.size();
  if (sample_rate > 0.0) {
    // The JSON serialization is what an exporting run pays on top of
    // recording; timed separately so per-request and end-of-run costs
    // are not conflated.
    std::vector<double> export_ms;
    for (int rep = 0; rep < kWallReps; ++rep) {
      const auto export_start = std::chrono::steady_clock::now();
      volatile std::size_t sink = recorder.to_chrome_json().size();
      (void)sink;
      export_ms.push_back(std::chrono::duration<double, std::milli>(
                              std::chrono::steady_clock::now() - export_start)
                              .count());
    }
    result.export_ms = spread_of(std::move(export_ms));
  }
  return result;
}

bool identical(const RunResult& a, const RunResult& b) {
  return a.count == b.count && a.mean_ns == b.mean_ns &&
         a.p50_ns == b.p50_ns && a.p99_ns == b.p99_ns &&
         a.completed == b.completed;
}

/// Wall cost of one flight-recorder append, measured on a fresh private
/// ring per repetition (the global one stays reserved for real
/// anomalies). Also checks every ring honors its bound under sustained
/// overflow.
struct FlightrecCost {
  Spread ns_per_record;
  bool bounded = true;
};

FlightrecCost measure_flightrec(std::uint64_t records) {
  FlightrecCost cost;
  std::vector<double> ns_per_record;
  for (int rep = 0; rep < kWallReps; ++rep) {
    flightrec::FlightRecorder ring;
    const auto start = std::chrono::steady_clock::now();
    for (std::uint64_t i = 0; i < records; ++i) {
      ring.record(static_cast<SimTime>(i), flightrec::Kind::kOther, i, i >> 1,
                  "synthetic anomaly");
    }
    const double ns = std::chrono::duration<double, std::nano>(
                          std::chrono::steady_clock::now() - start)
                          .count();
    ns_per_record.push_back(ns / static_cast<double>(records));
    cost.bounded = cost.bounded &&
                   ring.snapshot().size() <= ring.capacity() &&
                   ring.recorded() == records &&
                   ring.evicted() == records - ring.capacity();
  }
  cost.ns_per_record = spread_of(std::move(ns_per_record));
  return cost;
}

/// One 2-shard closed-loop run with stall accounting live the whole
/// time. Returns the simulated stats (for the rerun-identity check) and
/// the collector snapshot (for the sum-to-wall identity).
struct ShardRun {
  RunResult result;
  sim::ShardStats stats;
};

ShardRun run_sharded(std::uint64_t total) {
  BackendRig rig(backends::BackendKind::kLambdaNic, /*worker_threads=*/56,
                 /*shards=*/2);
  WorkloadCase test;
  test.name = "web";
  test.workload = workloads::kWebServerId;
  test.payload = [](std::uint64_t i) {
    return workloads::encode_web_request(i & 3);
  };
  test.requests = total;
  const Sampler latency = rig.run_closed_loop(test, /*concurrency=*/8);
  ShardRun run;
  run.result.count = latency.count();
  run.result.mean_ns = latency.mean();
  run.result.p50_ns = latency.median();
  run.result.p99_ns = latency.p99();
  run.result.completed = rig.backend().completed();
  run.stats = rig.sharded().shard_stats();
  return run;
}

/// Worst per-shard |busy + barrier + sync - wall| / wall, in percent.
double stall_sum_error_pct(const sim::ShardStats& stats) {
  if (stats.total_wall_ns == 0) return 0.0;
  double worst = 0.0;
  for (unsigned s = 0; s < stats.shards; ++s) {
    const double sum = static_cast<double>(
        stats.busy_ns[s] + stats.barrier_ns[s] + stats.sync_wall_ns());
    const double err =
        std::abs(sum - static_cast<double>(stats.total_wall_ns)) /
        static_cast<double>(stats.total_wall_ns) * 100.0;
    if (err > worst) worst = err;
  }
  return worst;
}

}  // namespace

int main() {
  print_header("Supplementary: tracing overhead");
  BenchSummary summary("supp_trace_overhead", /*seed=*/1);

  constexpr std::uint64_t kTotal = 4000;
  constexpr std::uint32_t kSenders = 8;

  const RunResult off = run(0.0, kTotal, kSenders);
  const RunResult sampled = run(1.0 / 16.0, kTotal, kSenders);
  const RunResult full = run(1.0, kTotal, kSenders);
  const RunResult profiled = run(1.0, kTotal, kSenders, /*profile=*/true);

  std::printf("\n  %-16s %10s %12s %12s %9s %11s %7s %7s\n", "tracing",
              "requests", "p50 (us)", "p99 (us)", "spans", "export (ms)",
              "(min)", "(max)");
  const auto row = [](const char* label, const RunResult& r) {
    std::printf("  %-16s %10llu %12.2f %12.2f %9zu %11.1f %7.1f %7.1f\n",
                label, static_cast<unsigned long long>(r.count),
                r.p50_ns / 1e3, r.p99_ns / 1e3, r.spans, r.export_ms.median,
                r.export_ms.min, r.export_ms.max);
  };
  row("off", off);
  row("sampled 1/16", sampled);
  row("full", full);
  row("full + profiler", profiled);

  const bool sim_identical = identical(off, sampled) &&
                             identical(off, full) &&
                             identical(off, profiled);
  std::printf("\n  simulated stats identical across rows: %s\n",
              sim_identical ? "yes" : "NO (determinism regression!)");

  summary.add("off/p99", off.p99_ns / 1e3, "us");
  summary.add("full/p99", full.p99_ns / 1e3, "us");
  summary.add("full/spans", static_cast<double>(full.spans), "count");
  summary.add("sim_identical", sim_identical ? 1.0 : 0.0, "bool");
  // By construction the simulated p99 delta is zero; exported so sweeps
  // can alarm on any future regression.
  summary.add("p99_overhead_pct",
              off.p99_ns > 0.0
                  ? (full.p99_ns - off.p99_ns) / off.p99_ns * 100.0
                  : 0.0,
              "%");

  // -- flight recorder: per-record wall cost, ring stays bounded --------
  constexpr std::uint64_t kFlightrecRecords = 1'000'000;
  const FlightrecCost fr = measure_flightrec(kFlightrecRecords);
  std::printf("\n  flight recorder: %.0f ns/record (min %.0f, max %.0f) "
              "over %d x %llu appends, ring bounded: %s\n",
              fr.ns_per_record.median, fr.ns_per_record.min,
              fr.ns_per_record.max, kWallReps,
              static_cast<unsigned long long>(kFlightrecRecords),
              fr.bounded ? "yes" : "NO");
  summary.add("flightrec_ns_per_record", fr.ns_per_record.median, "ns");
  summary.add("flightrec_ns_per_record_min", fr.ns_per_record.min, "ns");
  summary.add("flightrec_ns_per_record_max", fr.ns_per_record.max, "ns");
  summary.add("flightrec_bounded", fr.bounded ? 1.0 : 0.0, "bool");

  // -- shard stall accounting: no perturbation, sums to wall -----------
  constexpr std::uint64_t kShardTotal = 1000;
  const ShardRun shard_a = run_sharded(kShardTotal);
  const ShardRun shard_b = run_sharded(kShardTotal);
  const bool shard_identical = identical(shard_a.result, shard_b.result);
  const double shard_sum_err =
      std::max(stall_sum_error_pct(shard_a.stats),
               stall_sum_error_pct(shard_b.stats));
  std::printf("  2-shard rerun identical with stall accounting on: %s\n",
              shard_identical ? "yes" : "NO (determinism regression!)");
  std::printf("  stall breakdown sum error: %.3f%% of wall "
              "(%llu windows)\n",
              shard_sum_err,
              static_cast<unsigned long long>(shard_a.stats.windows));
  summary.add("shard_identical", shard_identical ? 1.0 : 0.0, "bool");
  summary.add("shard_stall_sum_err_pct", shard_sum_err, "%");

  if (!sim_identical) {
    return bench_fail("simulated stats differ across tracing rows");
  }
  if (!shard_identical) {
    return bench_fail("2-shard rerun differs with stall accounting on");
  }
  if (!fr.bounded) {
    return bench_fail("flight recorder ring exceeded its bound");
  }
  if (shard_sum_err > 1.0) {
    return bench_fail("shard stall breakdown does not sum to wall (" +
                      std::to_string(shard_sum_err) + "% off)");
  }
  return 0;
}
