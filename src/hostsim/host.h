// Server-CPU worker model for the baseline backends (§6.1.1).
//
// A HostServer is a worker node whose lambdas run behind the OpenFaaS
// Python service (bare metal) or the same service inside Docker with
// overlay networking (containers). A request passes three stages, each
// a queued resource:
//
//   kernel stage  (capacity = cores)      per-packet rx/tx work — the OS
//                                         network stack plus, for
//                                         containers, veth/OVS/conntrack;
//   runtime stage (capacity = cores, or 1 per-request dispatch — watchdog
//                  when serialize_runtime)  fork/IPC, gateway NAT;
//   GIL stage     (capacity = gil_limit)  the lambda's interpreted
//                                         execution — CPython's global
//                                         interpreter lock serializes it
//                                         no matter how many cores exist.
//
// A context switch is charged whenever the GIL slot picks up a different
// workload than it last ran (the §6.3.2 contention effect). Service
// times carry multiplicative jitter plus rare scheduler/GC hiccups — the
// paper's "miscellaneous software overheads" that produce the host
// backends' long tails. A lambda blocked on an external KV call holds
// its service thread but releases all stage resources, paying fresh
// kernel+GIL costs on resume — exactly the CPU behaviour the paper
// blames for host tail latency, and absent from the run-to-completion
// NIC.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <vector>

#include "common/result.h"
#include "common/rng.h"
#include "common/stats.h"
#include "common/trace.h"
#include "common/types.h"
#include "microc/interp.h"
#include "net/network.h"
#include "sim/simulator.h"

namespace lnic::hostsim {

struct HostConfig {
  /// Physical parallelism for kernel/runtime work (56 hardware threads
  /// on the testbed's dual Xeon Gold 5117, §6.1.2). Fig. 8's "single
  /// core" variant sets 1.
  std::uint32_t cores = 56;
  /// Service concurrency: how many lambda invocations the runtime admits
  /// at once (the "1 thread" / "56 threads" axis of Fig. 7).
  std::uint32_t worker_threads = 56;
  /// Parallelism of interpreted lambda execution. 1 = CPython GIL.
  std::uint32_t gil_limit = 1;
  /// Serialize the per-request runtime dispatch (OpenFaaS classic
  /// watchdog forks one request at a time inside the container).
  bool serialize_runtime = false;
  /// Cost of the GIL slot switching to a different lambda (register/TLB
  /// state, cache refill, interpreter state swap).
  SimDuration context_switch = microseconds(300);
  /// Kernel network stack + virtualization cost per packet.
  SimDuration rx_per_packet = microseconds(15);
  SimDuration tx_per_packet = microseconds(10);
  /// Runtime dispatch per request (watchdog fork/IPC, NAT/conntrack).
  SimDuration per_request = microseconds(110);
  /// Execution cost model (host_python for both baselines).
  microc::CostModel cost = microc::CostModel::host_python();
  /// Multiplicative service jitter (uniform in [1, 1+jitter_fraction])
  /// and rare scheduler/GC hiccups appended to execution.
  double jitter_fraction = 0.20;
  double hiccup_probability = 0.02;
  SimDuration hiccup_max = microseconds(500);
  std::size_t max_queue_depth = 8192;
  std::uint64_t seed = 0xB057;
};

struct HostStats {
  std::uint64_t requests_completed = 0;
  std::uint64_t requests_dropped = 0;
  std::uint64_t context_switches = 0;
  std::uint32_t peak_active_jobs = 0;  // service-thread high-water mark
  Sampler queue_wait_ns;
  SimDuration busy_time = 0;  // CPU-occupancy for utilization (Table 3)
};

class HostServer {
 public:
  HostServer(sim::Simulator& sim, net::Network& network, HostConfig config);
  ~HostServer();  // out of line: Job is incomplete here

  NodeId node() const { return node_; }

  /// Installs the program whose lambda_entries this worker serves. The
  /// host runs the same logic as the NIC but under the host cost model;
  /// dispatch happens in the runtime, not a P4 match stage. The program
  /// is verified and lowered once here; a rejected one is not installed.
  Status deploy(microc::Program program);

  void set_kv_server(NodeId node) { kv_server_ = node; }

  const HostStats& stats() const { return stats_; }
  /// Cores currently busy in any stage (kernel / runtime / GIL).
  std::uint32_t busy_cores() const { return busy_units_; }
  const HostConfig& config() const { return config_; }

  /// Attaches (nullptr detaches) the span recorder. Requests whose
  /// lambda header carries a trace id get host.queue / host.kernel /
  /// host.runtime / host.execute / host.kv_wait spans. Recording never
  /// affects simulated timing.
  void set_tracer(trace::TraceRecorder* tracer) { tracer_ = tracer; }

 private:
  struct Job;
  /// A queued single-stage resource (capacity units, FIFO).
  struct Stage {
    std::uint32_t capacity = 1;
    std::uint32_t busy = 0;
    std::deque<std::pair<std::unique_ptr<Job>, SimDuration>> queue;
  };

  void handle_packet(const net::Packet& packet);
  void handle_request(const net::Packet& packet, net::BufferView body);
  void handle_kv_response(const net::Packet& packet);
  void admit(std::unique_ptr<Job> job);
  void try_admit();
  const char* stage_span_name(const Stage& stage) const;

  // Stage plumbing: occupy `stage` for `service`, then continue.
  enum class Next : std::uint8_t { kRuntime, kGil, kTx, kDone };
  void enter_stage(Stage& stage, std::unique_ptr<Job> job,
                   SimDuration service, Next next);
  void stage_done(Stage& stage, std::unique_ptr<Job> job, Next next);
  void run_gil(std::unique_ptr<Job> job);   // executes the lambda
  void finish_job(std::unique_ptr<Job> job);

  SimDuration jittered(SimDuration base);

  sim::Simulator& sim_;
  net::Network& network_;
  HostConfig config_;
  NodeId node_;
  NodeId kv_server_ = kInvalidNode;
  Rng rng_;

  std::shared_ptr<const microc::Executable> image_;  // deployed, lowered
  microc::ObjectStore globals_;

  Stage kernel_;   // per-packet work
  Stage runtime_;  // per-request dispatch
  Stage gil_;      // interpreted execution
  WorkloadId gil_last_workload_ = kInvalidWorkload;
  std::uint32_t busy_units_ = 0;

  std::uint32_t active_jobs_ = 0;  // jobs holding a service thread
  std::deque<std::unique_ptr<Job>> admission_;

  struct Reassembly {
    std::vector<net::BufferView> frags;
    std::uint32_t received = 0;
    net::Packet first;
  };
  std::map<std::pair<NodeId, RequestId>, Reassembly> reassembly_;

  std::map<RequestId, std::unique_ptr<Job>> waiting_kv_;
  RequestId next_token_ = 1;

  trace::TraceRecorder* tracer_ = nullptr;

  HostStats stats_;
};

}  // namespace lnic::hostsim
