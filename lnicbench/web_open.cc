// web_open: the paper's 4-worker λ-NIC cluster (3-node etcd, standard
// four-lambda firmware, one shard) serving Zipf-skewed web_server page
// requests through Gateway::invoke, open-loop Poisson at one fixed rate
// the cluster absorbs without a growing backlog. The Micro-C interpreter
// does most of the host work here; the sharded engine is bypassed.
#include <algorithm>
#include <memory>

#include "backends/backend.h"
#include "common.h"
#include "compiler/pipeline.h"
#include "core/cluster.h"
#include "loadgen/generator.h"

namespace lnicbench {

using namespace lnic;

namespace {

constexpr double kRateRps = 100'000.0;
constexpr double kPageZipf = 0.99;
constexpr std::size_t kProbeOps = 2000;
constexpr double kTraceTarget = 2000.0;  // gateway traces per round
const char* const kFunction = "web_server";

}  // namespace

RoundResult run_web_open(const RoundConfig& config) {
  RoundResult result;
  const double round_start = wall_seconds();
  result.window = config.tiny ? milliseconds(3) : milliseconds(100);
  result.deadline = microseconds(200);

  core::ClusterConfig cluster_config;
  cluster_config.workers = 4;
  cluster_config.etcd_nodes = 3;
  cluster_config.seed = config.seed;
  // A limiter generous enough never to shed at this rate, so queueing
  // and shedding are measured rather than disabled.
  cluster_config.gateway.max_inflight_per_function = 256;
  cluster_config.gateway.max_queue_depth = 1024;

  trace::TraceRecorder tracer;  // outlives the cluster that points at it
  std::unique_ptr<core::Cluster> cluster;
  {
    Scoped span("core.build");
    cluster = std::make_unique<core::Cluster>(cluster_config);
  }
  workloads::WorkloadBundle bundle = workloads::make_standard_workloads();
  workloads::WorkloadBundle reference;  // ground truth pages only
  reference.web_pages = bundle.web_pages;
  std::unique_ptr<compiler::CompileOutput> compiled;
  if (config.traced) {
    Scoped span("compiler.compile");
    auto out = compiler::compile(bundle.spec, bundle.lambdas);
    if (out.ok()) {
      compiled = std::make_unique<compiler::CompileOutput>(
          std::move(out).value());
    }
  }
  {
    Scoped span("core.deploy");
    const auto record = cluster->deploy(std::move(bundle));
    if (!record.ok()) {
      result.problems.push_back("deploy failed: " + record.error().message);
      return result;
    }
  }
  {
    Scoped span("core.ready");
    cluster->wait_until_ready();
  }

  std::vector<nicsim::SmartNic*> nics;
  for (std::size_t i = 0; i < cluster->worker_count(); ++i) {
    auto* nic_backend =
        dynamic_cast<backends::LambdaNicBackend*>(&cluster->worker(i));
    if (nic_backend != nullptr) nics.push_back(&nic_backend->nic());
  }
  framework::Gateway& gateway = cluster->gateway();
  if (config.traced) {
    const double expected_ops = kRateRps * to_sec(result.window);
    gateway.set_tracer(&tracer, std::min(1.0, kTraceTarget / expected_ops));
    for (std::size_t i = 0; i < cluster->worker_count(); ++i) {
      cluster->worker(i).set_tracer(&tracer);
    }
    for (auto* nic : nics) nic->enable_profiler();
  }

  sim::Simulator& sim0 = cluster->sim();
  loadgen::ZipfSelector page_zipf(workloads::kWebPageCount, kPageZipf,
                                  config.seed ^ 0x9a6e5ull);
  std::vector<std::vector<std::uint8_t>> probe_payloads;
  const std::uint64_t corrupt = config.corrupt_expected ? 1 : 0;

  loadgen::LoadGenConfig lg;
  lg.arrivals = loadgen::ArrivalSpec::poisson(kRateRps);
  lg.duration = result.window;
  lg.seed = config.seed;
  lg.slo.deadline = result.deadline;
  auto sink = [&](const loadgen::Request& request,
                  loadgen::CompletionFn done) {
    Scoped sink_span("loadgen.sink");
    const std::uint64_t op = page_zipf.sample();
    std::vector<std::uint8_t> body = workloads::encode_web_request(op);
    if (config.traced && probe_payloads.size() < kProbeOps) {
      probe_payloads.push_back(body);
    }
    auto on_response = [&result, &sim0, &reference, corrupt, op,
                        id = request.id, intended = request.intended,
                        done](Result<proto::RpcResponse> response) {
      Scoped span("op.complete");
      const SimDuration latency = sim0.now() - intended;
      if (!response.ok()) {
        record_op(result.ops, id, OpStatus::kFailed, latency, 0);
        done(false);
        return;
      }
      const net::BufferView& got = response.value().payload;
      const std::string& want =
          workloads::expected_web_page(reference, op + corrupt);
      // The reply is one header word followed by the page.
      const bool match = got.size() == 8 + want.size() &&
                         std::equal(got.begin() + 8, got.end(), want.begin());
      record_op(result.ops, id, match ? OpStatus::kOk : OpStatus::kWrong,
                latency, fnv1a(got.data(), got.size()));
      done(true);
    };
    Scoped invoke_span("framework.invoke");
    gateway.invoke(kFunction, net::BufferView(std::move(body)),
                   std::move(on_response));
  };
  loadgen::LoadGenerator generator(sim0, lg,
                                   {loadgen::FunctionProfile{kFunction}}, sink);

  const SimTime sim_start = measure(result, round_start, cluster->sharded(),
                                   cluster->network(), generator);

  const double ops = static_cast<double>(generator.offered());
  LayerMetrics& m = result.layers;
  add_gateway_metrics(m, gateway, kFunction, ops);
  add_nic_metrics(m, nics, sim_start, sim0.now());
  if (config.traced) {
    add_simpath_metrics(m, tracer);
    if (compiled) {
      add_microc_probe(m, compiled->program, workloads::kWebServerId,
                       probe_payloads);
    }
  }
  return result;
}

}  // namespace lnicbench
