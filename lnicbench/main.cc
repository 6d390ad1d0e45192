// The repository benchmark binary: runs one named workload in rounds for
// a host-time budget and prints every metric by name with its unit. The
// last stdout line is one JSON object:
//   {"correct": bool, "attempted": n, "failed": n, "metrics": {...}}
// With --trace 0 the metrics are the end-to-end set, from untraced rounds.
// With --trace 1 rounds alternate untraced/traced and the metrics are the
// per-layer set: spans around the benchmark's calls into each layer, the
// NIC profiler and the gateway's trace recorder, plus the tracing
// overhead itself. Simulated results must match bit for bit across all
// rounds, traced or not, and every output is checked; a wrong output
// makes the process exit 1.
//
//   lnicbench --workload web_open|kv_txn --seed N
//             --seconds S --trace 0|1 [--tiny] [--spans-out PATH]
//             [--corrupt-expected]
//
// run.py builds this binary and is the entry point to use.
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "common.h"
#include "common/stats.h"

namespace lnicbench {
namespace {

using lnic::seconds;
using lnic::to_sec;
using lnic::to_us;

constexpr std::uint64_t kDefaultSeed = 1;
/// Held out: never used while tuning, for re-checking a claim.
constexpr std::uint64_t kHeldOutSeed = 2027;

struct Workload {
  const char* name;
  WorkloadFn run;
};

constexpr Workload kWorkloads[] = {
    {"web_open", run_web_open},
    {"kv_txn", run_kv_txn},
};

struct MetricSpec {
  const char* name;
  const char* unit;
};

constexpr MetricSpec kEndToEnd[] = {
    {"req_per_wall_s", "ops/s"}, {"cpu_us_per_req", "us"},
    {"setup_s", "s"},            {"peak_rss_mb", "MiB"},
    {"sim_p50_us", "us"},        {"sim_p99_us", "us"},
    {"sim_goodput_ops", "ops/s"}, {"ok_frac", "fraction"},
};

constexpr MetricSpec kPerLayer[] = {
    {"core.build_s", "s"},
    {"compiler.compile_s", "s"},
    {"core.deploy_s", "s"},
    {"core.ready_s", "s"},
    {"sim.events_per_op", "count"},
    {"sim.wall_ns_per_event", "ns"},
    {"sim.run_self_frac", "fraction"},
    {"microc.instr_per_op", "count"},
    {"microc.cycles_per_op", "count"},
    {"microc.ns_per_instr", "ns"},
    {"microc.est_share", "fraction"},
    {"nicsim.npu_busy_frac", "fraction"},
    {"net.packets_per_op", "count"},
    {"proto.rdma_ops_per_txn", "count"},
    {"loadgen.sink_self_ns", "ns"},
    {"framework.invoke_ns", "ns"},
    {"kvstore.commit_ratio", "fraction"},
    {"kvstore.cache_hit_ratio", "fraction"},
    {"kvstore.page_fetches_per_txn", "count"},
    {"simpath.proxy_us", "us"},
    {"simpath.transport_us", "us"},
    {"simpath.execute_us", "us"},
    {"trace.overhead_frac", "fraction"},
};

/// Per-layer figures the traced run prints but leaves out of its JSON:
/// each reads a constant on both workloads (0, or 1 for sim.busy_frac),
/// because they run on one shard over lossless links, with NO_WAIT
/// locking, no retransmission and a gateway limiter that never sheds at
/// their rates. No change could be judged by them here.
constexpr MetricSpec kPerLayerUnlisted[] = {
    {"sim.windows", "count"},
    {"sim.events_per_window", "count"},
    {"sim.cross_posts_per_op", "count"},
    {"sim.busy_frac", "fraction"},
    {"sim.barrier_frac", "fraction"},
    {"sim.sync_frac", "fraction"},
    {"nicsim.dropped", "count"},
    {"nicsim.traps", "count"},
    {"net.drop_frac", "fraction"},
    {"net.bytes_copied_per_op", "B"},
    {"proto.retx_per_call", "count"},
    {"proto.rpc_failures", "count"},
    {"framework.shed", "count"},
    {"framework.queue_depth_max", "count"},
    {"kvstore.lock_waits_per_txn", "count"},
    {"simpath.queue_us", "us"},
    {"simpath.retransmit_us", "us"},
};

/// Per-layer host times, rescaled to the reference host like the
/// end-to-end ones (fractions and counts need no rescaling).
constexpr const char* kHostTimeLayers[] = {
    "core.build_s",          "compiler.compile_s",   "core.deploy_s",
    "core.ready_s",          "sim.wall_ns_per_event", "microc.ns_per_instr",
    "loadgen.sink_self_ns",  "framework.invoke_ns",
};

struct Options {
  std::string workload;
  std::uint64_t seed = kDefaultSeed;
  double seconds = 10.0;
  bool trace = false;
  bool tiny = false;
  bool corrupt_expected = false;
  std::string spans_out;
};

/// What main keeps of one round once its ops are summarized. Host times
/// are raw; `reference_s` is the reference kernel's time just before.
struct RoundSummary {
  bool traced = false;
  double reference_s = 0.0;
  double setup_s = 0.0;
  double wall_s = 0.0;
  double cpu_s = 0.0;
  double peak_rss_mib = 0.0;
  std::uint64_t offered = 0;
  std::uint64_t ok = 0;
  std::uint64_t failed = 0;
  std::uint64_t wrong = 0;
  std::uint64_t digest = 0;
  LayerMetrics layers;

  /// Factor turning this round's host seconds into reference-host ones.
  double scale() const {
    return reference_s > 0.0 ? kReferenceHostSeconds / reference_s : 1.0;
  }
};

using MetricValues = std::vector<std::pair<const MetricSpec*, double>>;

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "lnicbench: %s\nusage: lnicbench --workload "
               "web_open|kv_txn --seed N --seconds S "
               "--trace 0|1 [--tiny] [--spans-out PATH] "
               "[--corrupt-expected]\n",
               why);
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage(("missing value for " + arg).c_str());
      return argv[++i];
    };
    if (arg == "--workload") {
      o.workload = value();
    } else if (arg == "--seed") {
      o.seed = std::strtoull(value().c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      o.seconds = std::strtod(value().c_str(), nullptr);
    } else if (arg == "--trace") {
      o.trace = value() == "1";
    } else if (arg == "--tiny") {
      o.tiny = true;
    } else if (arg == "--corrupt-expected") {
      o.corrupt_expected = true;
    } else if (arg == "--spans-out") {
      o.spans_out = value();
    } else {
      usage(("unknown argument " + arg).c_str());
    }
  }
  if (o.workload.empty()) usage("--workload is required");
  return o;
}

/// True when this binary, and the libraries built with the same flags,
/// are optimized. Timing an unoptimized build measures another program.
bool optimized_build() {
#ifdef __OPTIMIZE__
  const std::string flags = LNICBENCH_CXX_FLAGS;
  return std::string(LNICBENCH_BUILD_TYPE) != "Debug" &&
         flags.find("-O0") == std::string::npos;
#else
  return false;
#endif
}

/// Median over the rounds of one kind of `field` rescaled to the
/// reference host, each round by the reference-kernel time taken just
/// before it. Other tenants slow the host in phases of seconds to
/// minutes and slow the kernel by about the same factor, so the rescaled
/// figure varies far less from run to run than the raw one.
double median_scaled(const std::vector<RoundSummary>& rounds, bool traced,
                     double RoundSummary::*field) {
  lnic::Sampler values;
  for (const RoundSummary& r : rounds) {
    if (r.traced == traced) values.add(r.*field * r.scale());
  }
  return values.median();
}

RoundSummary summarize(const RoundResult& r, bool traced) {
  RoundSummary s;
  s.traced = traced;
  s.setup_s = r.setup_s;
  s.wall_s = r.measured_wall_s;
  s.cpu_s = r.measured_cpu_s;
  s.offered = r.ops.size();
  for (const OpRecord& op : r.ops) {
    if (!op.done || op.status == OpStatus::kFailed) {
      ++s.failed;
    } else if (op.status == OpStatus::kWrong) {
      ++s.wrong;
    } else {
      ++s.ok;
    }
  }
  s.wrong += r.problems.size();
  s.digest = digest(r.ops);
  s.layers = r.layers;
  return s;
}

/// Per-layer figures read from the span recorder after a traced round.
void add_span_metrics(LayerMetrics& m) {
  const SpanRecorder& rec = spans();
  m["core.build_s"] = rec.total_seconds("core.build");
  m["compiler.compile_s"] = rec.total_seconds("compiler.compile");
  m["core.deploy_s"] = rec.total_seconds("core.deploy");
  m["core.ready_s"] = rec.total_seconds("core.ready");
  double run_total = 0.0;
  double run_self = 0.0;
  double sink_self = 0.0;
  double sinks = 0.0;
  for (const Span& span : rec.spans()) {
    if (std::strcmp(span.name, "sim.run_until") == 0) {
      run_total += static_cast<double>(span.duration_ns());
      run_self += static_cast<double>(span.self_ns());
    } else if (std::strcmp(span.name, "loadgen.sink") == 0) {
      sink_self += static_cast<double>(span.self_ns());
      sinks += 1.0;
    }
  }
  m["sim.run_self_frac"] = run_total > 0.0 ? run_self / run_total : 0.0;
  m["loadgen.sink_self_ns"] = sinks > 0.0 ? sink_self / sinks : 0.0;
}

/// The end-to-end metrics. Host figures are rescaled medians over rounds;
/// simulated ones come from the first round, since every round replays
/// the same seed.
MetricValues end_to_end(const std::vector<RoundSummary>& rounds,
                        const std::vector<OpRecord>& ops, SimDuration window,
                        SimDuration deadline) {
  const double ok_per_round = static_cast<double>(rounds.front().ok);
  const double wall = median_scaled(rounds, false, &RoundSummary::wall_s);
  const double cpu = median_scaled(rounds, false, &RoundSummary::cpu_s);
  const double setup = median_scaled(rounds, false, &RoundSummary::setup_s);
  double rss = 0.0;
  lnic::Sampler reference;
  for (const RoundSummary& r : rounds) {
    rss = std::max(rss, r.peak_rss_mib);
    reference.add(r.reference_s);
  }
  // A failed or wrong op counts as over every latency limit: it takes
  // the drain horizon as its latency.
  const double horizon_us = to_us(window + seconds(10));
  lnic::Sampler latency_us;
  std::uint64_t on_time = 0;
  std::uint64_t ok = 0;
  for (const OpRecord& op : ops) {
    const bool good = op.done && op.status == OpStatus::kOk;
    latency_us.add(good ? to_us(op.latency) : horizon_us);
    ok += good ? 1 : 0;
    on_time += good && op.latency <= deadline ? 1 : 0;
  }
  const double n = static_cast<double>(ops.size());
  std::printf("end-to-end: %zu rounds, host times on the reference host "
              "(reference kernel median %.4f s here); simulated latency over "
              "%zu ops, deadline %.0f us, failed_frac %.6f\n",
              rounds.size(), reference.median(), ops.size(), to_us(deadline),
              n > 0 ? 1.0 - static_cast<double>(ok) / n : 0.0);
  return {
      {&kEndToEnd[0], wall > 0.0 ? ok_per_round / wall : 0.0},
      {&kEndToEnd[1], ok_per_round > 0.0 ? cpu * 1e6 / ok_per_round : 0.0},
      {&kEndToEnd[2], setup},
      {&kEndToEnd[3], rss},
      {&kEndToEnd[4], latency_us.median()},
      {&kEndToEnd[5], latency_us.p99()},
      {&kEndToEnd[6], static_cast<double>(on_time) / to_sec(window)},
      {&kEndToEnd[7], n > 0 ? static_cast<double>(ok) / n : 0.0},
  };
}

/// The per-layer metrics: medians over traced rounds, plus the two
/// derived from traced and untraced rounds together.
MetricValues per_layer(const std::vector<RoundSummary>& rounds,
                       std::size_t ops) {
  std::map<std::string, lnic::Sampler> samples;
  std::size_t traced = 0;
  for (const RoundSummary& r : rounds) {
    if (!r.traced) continue;
    ++traced;
    for (const auto& [name, value] : r.layers) samples[name].add(value);
  }
  LayerMetrics layers;
  for (const auto& [name, v] : samples) layers[name] = v.median();
  const double untraced_wall =
      median_scaled(rounds, false, &RoundSummary::wall_s);
  const double traced_wall = median_scaled(rounds, true, &RoundSummary::wall_s);
  layers["microc.est_share"] =
      untraced_wall > 0.0
          ? layers["microc.ns_per_instr"] * layers["microc.instr_per_op"] *
                static_cast<double>(ops) / 1e9 / untraced_wall
          : 0.0;
  layers["trace.overhead_frac"] =
      untraced_wall > 0.0 ? traced_wall / untraced_wall - 1.0 : 0.0;
  std::printf("per-layer: %zu traced rounds, host times on the reference "
              "host\n",
              traced);
  for (const MetricSpec& spec : kPerLayerUnlisted) {
    std::printf("  %-30s %18.6f %s (not listed)\n", spec.name,
                layers[spec.name], spec.unit);
  }
  MetricValues values;
  for (const MetricSpec& spec : kPerLayer) {
    values.push_back({&spec, layers[spec.name]});
  }
  return values;
}

std::string json_metrics(const MetricValues& values) {
  std::string out = "{";
  char buf[160];
  for (std::size_t i = 0; i < values.size(); ++i) {
    std::snprintf(buf, sizeof buf,
                  "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", values[i].first->name, values[i].second,
                  values[i].first->unit);
    out += buf;
  }
  return out + "}";
}

int run(const Options& options) {
  const Workload* workload = nullptr;
  for (const Workload& w : kWorkloads) {
    if (options.workload == w.name) workload = &w;
  }
  if (workload == nullptr) {
    usage(("unknown workload " + options.workload).c_str());
  }
  if (!optimized_build()) {
    std::fprintf(stderr,
                 "lnicbench: refusing to report from an unoptimized build "
                 "(build type '%s', flags '%s')\n",
                 LNICBENCH_BUILD_TYPE, LNICBENCH_CXX_FLAGS);
    return 2;
  }

  RoundConfig config;
  config.seed = options.seed;
  config.tiny = options.tiny;
  config.corrupt_expected = options.corrupt_expected;

  // Untraced rounds only without --trace; alternating untraced/traced
  // rounds with it. At least two rounds of each kind that runs.
  const std::size_t min_rounds = options.trace ? 4 : 3;
  std::vector<RoundSummary> rounds;
  std::vector<OpRecord> first_ops;
  SimDuration window = 0;
  SimDuration deadline = 0;
  unsigned shards = 1;
  std::vector<Span> kept_spans;
  const double start = wall_seconds();
  while (rounds.size() < min_rounds ||
         wall_seconds() - start < options.seconds) {
    config.traced = options.trace && rounds.size() % 2 == 1;
    const double reference_s = reference_kernel_seconds();
    reset_peak_rss();
    spans().clear();
    spans().set_enabled(config.traced);
    RoundResult result = workload->run(config);
    spans().set_enabled(false);
    RoundSummary summary = summarize(result, config.traced);
    summary.reference_s = reference_s;
    summary.peak_rss_mib = peak_rss_mib();
    for (const auto& problem : result.problems) {
      std::printf("round %zu: %s\n", rounds.size(), problem.c_str());
    }
    if (config.traced) {
      add_span_metrics(summary.layers);
      for (const char* name : kHostTimeLayers) {
        summary.layers[name] *= summary.scale();
      }
      if (!spans().well_nested()) {
        std::printf("round %zu: spans are not well nested\n", rounds.size());
        ++summary.wrong;
      }
      kept_spans = spans().spans();
    }
    std::printf("round %zu%s: reference %.4f s  setup %.4f s  measured "
                "%.4f s wall %.4f s cpu  ops %llu  ok %llu  failed %llu  "
                "wrong %llu  digest %016llx\n",
                rounds.size(), config.traced ? " (traced)" : "", reference_s,
                summary.setup_s, summary.wall_s, summary.cpu_s,
                static_cast<unsigned long long>(summary.offered),
                static_cast<unsigned long long>(summary.ok),
                static_cast<unsigned long long>(summary.failed),
                static_cast<unsigned long long>(summary.wrong),
                static_cast<unsigned long long>(summary.digest));
    std::fflush(stdout);
    if (rounds.empty()) {
      first_ops = std::move(result.ops);
      window = result.window;
      deadline = result.deadline;
      shards = result.shards;
    }
    rounds.push_back(std::move(summary));
  }

  // Every round replays the same seed: simulated results must agree.
  bool deterministic = true;
  std::uint64_t wrong = 0;
  std::uint64_t failed = 0;
  std::uint64_t attempted = 0;
  for (const RoundSummary& r : rounds) {
    deterministic = deterministic && r.digest == rounds.front().digest;
    wrong += r.wrong;
    failed += r.failed + r.wrong;
    attempted += r.offered;
  }
  const bool correct = wrong == 0 && deterministic && attempted > 0;

  std::printf(
      "meta {\"workload\": \"%s\", \"seed\": %llu, \"default_seed\": %llu, "
      "\"heldout_seed\": %llu, \"nproc\": %u, \"shards\": %u, "
      "\"compiler\": \"%s\", \"build_type\": \"%s\", \"cxx_flags\": \"%s\", "
      "\"rounds\": %zu, \"trace\": %d, \"reference_host_s\": %g}\n",
      workload->name, static_cast<unsigned long long>(options.seed),
      static_cast<unsigned long long>(kDefaultSeed),
      static_cast<unsigned long long>(kHeldOutSeed),
      static_cast<unsigned>(std::max(1L, sysconf(_SC_NPROCESSORS_ONLN))),
      shards,
      LNICBENCH_COMPILER, LNICBENCH_BUILD_TYPE, LNICBENCH_CXX_FLAGS,
      rounds.size(), options.trace ? 1 : 0, kReferenceHostSeconds);
  std::printf("digest %s seed=%llu ops=%zu %016llx (%s across %zu rounds%s)\n",
              workload->name, static_cast<unsigned long long>(options.seed),
              first_ops.size(),
              static_cast<unsigned long long>(rounds.front().digest),
              deterministic ? "identical" : "DIFFERS", rounds.size(),
              options.trace ? ", traced and untraced" : "");

  const MetricValues values =
      options.trace ? per_layer(rounds, first_ops.size())
                    : end_to_end(rounds, first_ops, window, deadline);
  for (const auto& [spec, value] : values) {
    std::printf("  %-30s %18.6f %s\n", spec->name, value, spec->unit);
  }
  if (!options.spans_out.empty() &&
      !write_spans_json(options.spans_out, kept_spans)) {
    std::fprintf(stderr, "lnicbench: cannot write %s\n",
                 options.spans_out.c_str());
    return 2;
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed),
              json_metrics(values).c_str());
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace lnicbench

int main(int argc, char** argv) {
  return lnicbench::run(lnicbench::parse(argc, argv));
}
