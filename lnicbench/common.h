// Shared pieces of the repository benchmark: the span recorder that
// attributes host time to the calls the benchmark makes into each layer,
// the per-op record every workload fills, the digest of simulated
// results, and the layer probes several workloads share.
//
// A workload runs in rounds. One round builds its rig from scratch
// (set-up), offers open-loop load from loadgen for a fixed simulated
// window (the measured phase, until the drain finishes), checks every
// output, and returns a RoundResult. Rounds of one process use the same
// seed, so their simulated results must be bit-identical; main.cc
// repeats rounds for the requested host time and reports medians of the
// host-time figures.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "common/trace.h"
#include "common/types.h"
#include "framework/gateway.h"
#include "loadgen/generator.h"
#include "microc/ir.h"
#include "net/network.h"
#include "nicsim/nic.h"
#include "sim/sharded.h"

namespace lnicbench {

using lnic::SimDuration;
using lnic::SimTime;

/// Host wall-clock seconds (steady clock).
double wall_seconds();
/// Host user+sys CPU seconds of the whole process, every thread.
double cpu_seconds();

/// Runs the fixed reference kernel and returns its wall seconds: a
/// miniature event loop (binary heap of timed events, one std::function
/// per event, a random 64-byte node of a 4 MiB table touched per event).
/// It does the simulator's kind of work with none of the simulator's
/// code, so no change to the simulator moves it, while other tenants of
/// a shared host slow it about as much as they slow the simulator.
/// main.cc rescales host times by it.
double reference_kernel_seconds();
/// The kernel's time on the host that defined the benchmark (Intel Xeon,
/// 2.1 GHz, 4 vCPUs, undisturbed): host times are reported as seconds on
/// that host, i.e. scaled by kReferenceHostSeconds / kernel time.
constexpr double kReferenceHostSeconds = 0.034;

/// Resets the process's peak resident set (false where the kernel does
/// not allow it), so peak_rss_mib() covers only what follows.
bool reset_peak_rss();
/// Peak resident set of the process in MiB since the last reset.
double peak_rss_mib();

// ------------------------------------------------------------------ spans

struct Span {
  const char* name = "";
  std::int64_t start_ns = 0;  // host ns since the recorder's origin
  std::int64_t end_ns = 0;
  std::int32_t parent = -1;  // index into spans(), -1 for a root
  std::int64_t child_ns = 0;  // time covered by direct children

  std::int64_t duration_ns() const { return end_ns - start_ns; }
  std::int64_t self_ns() const { return duration_ns() - child_ns; }
};

/// In-memory span recorder for the benchmark's own calls into the
/// layers. Spans nest by call stack, so it must only be used from one
/// thread: the coordinating thread, which also runs shard 0 and every
/// loadgen sink and completion callback. Disabled (the default), open()
/// and close() cost one branch.
class SpanRecorder {
 public:
  void set_enabled(bool on) { enabled_ = on; }
  bool enabled() const { return enabled_; }

  /// Opens a span under the innermost open one; -1 when disabled.
  int open(const char* name);
  /// Closes span `index`, which must be the innermost open span.
  void close(int index);

  void clear();
  const std::vector<Span>& spans() const { return spans_; }
  /// False once a close() arrived out of stack order.
  bool well_nested() const { return well_nested_ && stack_.empty(); }

  /// Sum of durations of every closed span called `name`, in seconds.
  double total_seconds(const std::string& name) const;
  /// Number of spans called `name` and their mean duration in ns.
  std::size_t count(const std::string& name) const;
  double mean_ns(const std::string& name) const;

 private:
  bool enabled_ = false;
  bool well_nested_ = true;
  std::chrono::steady_clock::time_point origin_ =
      std::chrono::steady_clock::now();
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

/// Writes `spans` as JSON: {"spans": [{"name", "start_ns", "end_ns",
/// "parent", "self_ns"}, ...]}. False on I/O failure.
bool write_spans_json(const std::string& path, const std::vector<Span>& spans);

/// The process-wide recorder the workloads write into.
SpanRecorder& spans();

/// RAII span on the process-wide recorder.
class Scoped {
 public:
  explicit Scoped(const char* name) : index_(spans().open(name)) {}
  ~Scoped() { spans().close(index_); }
  Scoped(const Scoped&) = delete;
  Scoped& operator=(const Scoped&) = delete;

 private:
  int index_;
};

// ----------------------------------------------------------------- rounds

enum class OpStatus : std::uint8_t { kOk = 0, kFailed = 1, kWrong = 2 };

/// One offered op's simulated outcome. The latency runs from the op's
/// intended send time (loadgen's coordinated-omission-safe clock).
struct OpRecord {
  OpStatus status = OpStatus::kFailed;
  bool done = false;
  SimDuration latency = 0;
  std::uint64_t response_hash = 0;
};

struct RoundConfig {
  std::uint64_t seed = 1;
  bool traced = false;  // spans, NIC profiler, gateway trace recorder
  bool tiny = false;    // test size: a few hundred ops
  /// Test hook: perturbs the expected outputs so the checks must fail.
  bool corrupt_expected = false;
};

/// Per-layer figures keyed by their BENCHMARK.json name.
using LayerMetrics = std::map<std::string, double>;

struct RoundResult {
  double setup_s = 0.0;
  double measured_wall_s = 0.0;
  double measured_cpu_s = 0.0;
  unsigned shards = 1;
  SimDuration window = 0;    // simulated offering window
  SimDuration deadline = 0;  // the workload's stated latency deadline
  std::vector<OpRecord> ops;  // indexed by loadgen request id
  /// Workload-level output problems found after the drain (a lost
  /// update, an op that never completed); each counts as wrong output.
  std::vector<std::string> problems;
  LayerMetrics layers;
};

using WorkloadFn = RoundResult (*)(const RoundConfig&);

RoundResult run_web_open(const RoundConfig& config);
RoundResult run_kv_txn(const RoundConfig& config);

// ---------------------------------------------------------------- helpers

/// FNV-1a over bytes, chainable through `h`.
std::uint64_t fnv1a(const std::uint8_t* data, std::size_t size,
                    std::uint64_t h = 14695981039346656037ull);
std::uint64_t fnv1a_u64(std::uint64_t value, std::uint64_t h);

/// Digest of the simulated results: every op's id, status, latency and
/// response hash, in id order.
std::uint64_t digest(const std::vector<OpRecord>& ops);

/// Records op `id`'s outcome, growing the vector as ids arrive.
void record_op(std::vector<OpRecord>& ops, std::uint64_t id, OpStatus status,
               SimDuration latency, std::uint64_t response_hash);

/// The measured phase: starts `generator` and runs the engine in
/// `run_until` slices of 1 ms simulated time, each inside a
/// "sim.run_until" span, until every offered op has completed (or 10
/// simulated seconds after the window, a "load did not drain" problem).
/// Records the set-up time since `round_start`, the measured wall and CPU
/// time, sizes `result.ops` to the ops offered, records the shard count,
/// and adds the sim.* and net.* metrics. Returns the simulated time the
/// load started.
SimTime measure(RoundResult& result, double round_start,
                lnic::sim::ShardedSimulator& sharded,
                const lnic::net::Network& network,
                lnic::loadgen::LoadGenerator& generator);

/// framework.* and proto.retx_per_call / proto.rpc_failures from a
/// gateway that served `calls` invocations under function `name`.
void add_gateway_metrics(LayerMetrics& out, lnic::framework::Gateway& gw,
                         const std::string& name, double calls);

/// nicsim.*: drops and traps summed over `nics`, and the NPU-grid busy
/// fraction over [since, now] of the NICs whose profiler is enabled.
void add_nic_metrics(LayerMetrics& out,
                     const std::vector<lnic::nicsim::SmartNic*>& nics,
                     SimTime since, SimTime now);

/// simpath.*: median simulated critical-path components (us) over every
/// trace the recorder holds.
void add_simpath_metrics(LayerMetrics& out,
                         const lnic::trace::TraceRecorder& tracer);

/// microc.instr_per_op, microc.cycles_per_op and microc.ns_per_instr:
/// replays `payloads` through microc::Machine::run on `program` (the
/// compiler's output for the deployed bundle), with one global object
/// store for the whole replay. main.cc derives microc.est_share.
void add_microc_probe(LayerMetrics& out, const lnic::microc::Program& program,
                      lnic::WorkloadId workload,
                      const std::vector<std::vector<std::uint8_t>>& payloads);

}  // namespace lnicbench
