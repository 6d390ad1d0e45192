#include "common.h"

#include <sys/mman.h>
#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <functional>
#include <queue>

#include "common/buffer.h"
#include "common/stats.h"
#include "microc/interp.h"
#include "proto/invocation.h"

namespace lnicbench {

double wall_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) / 1e9;
}

double reference_kernel_seconds() {
  // A miniature discrete-event loop: a binary heap of timed events, a
  // std::function per event, and a pseudo-random 64-byte node of a 4 MiB
  // table touched by each handler. The table is mapped and unmapped here
  // so that it never counts toward a round's resident memory.
  constexpr std::size_t kNodes = std::size_t{1} << 16;
  struct Node {
    std::uint64_t words[8];
  };
  struct Event {
    std::uint64_t at;
    std::uint32_t node;
    bool operator>(const Event& o) const { return at > o.at; }
  };
  constexpr std::size_t kBytes = kNodes * sizeof(Node);
  void* memory = mmap(nullptr, kBytes, PROT_READ | PROT_WRITE,
                      MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (memory == MAP_FAILED) return 0.0;
  std::memset(memory, 0, kBytes);  // fault the pages in before timing
  auto* nodes = static_cast<Node*>(memory);
  std::priority_queue<Event, std::vector<Event>, std::greater<Event>> queue;
  const double t0 = wall_seconds();
  std::uint64_t x = 0x9E3779B97F4A7C15ull;
  for (std::uint32_t i = 0; i < 4096; ++i) queue.push({i, i});
  std::uint64_t sum = 0;
  for (int step = 0; step < 300000; ++step) {
    const Event e = queue.top();
    queue.pop();
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    const std::uint64_t salt = x;
    std::function<std::uint64_t(Node&)> handler = [salt](Node& n) {
      n.words[salt & 7] += salt;
      return n.words[(salt >> 3) & 7];
    };
    sum += handler(nodes[(e.node * 2654435761u + salt) & (kNodes - 1)]);
    queue.push({e.at + 1 + (salt & 1023), static_cast<std::uint32_t>(salt)});
  }
  const double elapsed = wall_seconds() - t0;
  volatile std::uint64_t observed = sum;  // keeps the loop's work
  (void)observed;
  munmap(memory, kBytes);
  return elapsed;
}

bool reset_peak_rss() {
  std::FILE* f = std::fopen("/proc/self/clear_refs", "w");
  if (f == nullptr) return false;
  const bool written = std::fputs("5", f) >= 0;
  return std::fclose(f) == 0 && written;
}

double peak_rss_mib() {
  if (std::FILE* f = std::fopen("/proc/self/status", "r")) {
    char line[256];
    long kib = -1;
    while (std::fgets(line, sizeof line, f) != nullptr) {
      if (std::strncmp(line, "VmHWM:", 6) == 0) kib = std::atol(line + 6);
    }
    std::fclose(f);
    if (kib >= 0) return static_cast<double>(kib) / 1024.0;
  }
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

// ------------------------------------------------------------------ spans

int SpanRecorder::open(const char* name) {
  if (!enabled_) return -1;
  Span span;
  span.name = name;
  span.start_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                      std::chrono::steady_clock::now() - origin_)
                      .count();
  span.end_ns = span.start_ns;
  span.parent = stack_.empty() ? -1 : stack_.back();
  spans_.push_back(span);
  const int index = static_cast<int>(spans_.size() - 1);
  stack_.push_back(index);
  return index;
}

void SpanRecorder::close(int index) {
  if (index < 0) return;
  if (stack_.empty() || stack_.back() != index) {
    well_nested_ = false;
    return;
  }
  stack_.pop_back();
  Span& span = spans_[static_cast<std::size_t>(index)];
  span.end_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                    std::chrono::steady_clock::now() - origin_)
                    .count();
  if (span.parent >= 0) {
    spans_[static_cast<std::size_t>(span.parent)].child_ns +=
        span.duration_ns();
  }
}

void SpanRecorder::clear() {
  spans_.clear();
  stack_.clear();
  well_nested_ = true;
}

double SpanRecorder::total_seconds(const std::string& name) const {
  std::int64_t total = 0;
  for (const Span& span : spans_) {
    if (name == span.name) total += span.duration_ns();
  }
  return static_cast<double>(total) / 1e9;
}

std::size_t SpanRecorder::count(const std::string& name) const {
  return static_cast<std::size_t>(
      std::count_if(spans_.begin(), spans_.end(),
                    [&name](const Span& span) { return name == span.name; }));
}

double SpanRecorder::mean_ns(const std::string& name) const {
  const std::size_t n = count(name);
  return n == 0 ? 0.0 : total_seconds(name) * 1e9 / static_cast<double>(n);
}

bool write_spans_json(const std::string& path,
                      const std::vector<Span>& spans) {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  std::fprintf(out, "{\"spans\": [\n");
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    std::fprintf(out,
                 "{\"name\": \"%s\", \"start_ns\": %lld, \"end_ns\": %lld, "
                 "\"parent\": %d, \"self_ns\": %lld}%s\n",
                 s.name, static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns), s.parent,
                 static_cast<long long>(s.self_ns()),
                 i + 1 < spans.size() ? "," : "");
  }
  std::fprintf(out, "]}\n");
  return std::fclose(out) == 0;
}

SpanRecorder& spans() {
  static SpanRecorder recorder;
  return recorder;
}

// ---------------------------------------------------------------- helpers

std::uint64_t fnv1a(const std::uint8_t* data, std::size_t size,
                    std::uint64_t h) {
  for (std::size_t i = 0; i < size; ++i) {
    h ^= data[i];
    h *= 1099511628211ull;
  }
  return h;
}

std::uint64_t fnv1a_u64(std::uint64_t value, std::uint64_t h) {
  std::uint8_t bytes[8];
  for (int i = 0; i < 8; ++i) {
    bytes[i] = static_cast<std::uint8_t>(value >> (8 * i));
  }
  return fnv1a(bytes, sizeof bytes, h);
}

std::uint64_t digest(const std::vector<OpRecord>& ops) {
  std::uint64_t h = fnv1a(nullptr, 0);
  for (std::size_t id = 0; id < ops.size(); ++id) {
    const OpRecord& op = ops[id];
    h = fnv1a_u64(id, h);
    h = fnv1a_u64(op.done ? static_cast<std::uint64_t>(op.status) : 0xFF, h);
    h = fnv1a_u64(static_cast<std::uint64_t>(op.latency), h);
    h = fnv1a_u64(op.response_hash, h);
  }
  return h;
}

void record_op(std::vector<OpRecord>& ops, std::uint64_t id, OpStatus status,
               SimDuration latency, std::uint64_t response_hash) {
  if (id >= ops.size()) ops.resize(id + 1);
  OpRecord& op = ops[id];
  op.status = status;
  op.done = true;
  op.latency = latency;
  op.response_hash = response_hash;
}

namespace {

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

double diff(std::uint64_t after, std::uint64_t before) {
  return static_cast<double>(after - before);
}

/// Engine and fabric counters at one instant.
struct EngineSnapshot {
  std::uint64_t events = 0;
  std::uint64_t windows = 0;
  std::uint64_t cross_posts = 0;
  std::uint64_t total_wall_ns = 0;
  std::uint64_t window_wall_ns = 0;
  std::uint64_t busy_ns = 0;     // summed over shards
  std::uint64_t barrier_ns = 0;  // summed over shards
  std::uint64_t packets_sent = 0;
  std::uint64_t packets_dropped = 0;
  std::uint64_t bytes_copied = 0;
};

EngineSnapshot snapshot(const lnic::sim::ShardedSimulator& sharded,
                        const lnic::net::Network& network) {
  EngineSnapshot s;
  s.events = sharded.events_dispatched();
  s.windows = sharded.windows_executed();
  s.cross_posts = sharded.cross_shard_posts();
  const lnic::sim::ShardStats stats = sharded.shard_stats();
  s.total_wall_ns = stats.total_wall_ns;
  s.window_wall_ns = stats.window_wall_ns;
  for (const auto ns : stats.busy_ns) s.busy_ns += ns;
  for (const auto ns : stats.barrier_ns) s.barrier_ns += ns;
  s.packets_sent = network.packets_sent();
  s.packets_dropped = network.packets_dropped();
  s.bytes_copied = lnic::copy_stats().bytes_copied;
  return s;
}

/// sim.* and net.* figures over the measured phase.
void add_engine_metrics(LayerMetrics& out, const EngineSnapshot& before,
                        const EngineSnapshot& after, unsigned shards,
                        double measured_wall_s, double ops) {
  const double events = diff(after.events, before.events);
  const double windows = diff(after.windows, before.windows);
  const double total_wall = diff(after.total_wall_ns, before.total_wall_ns);
  const double window_wall = diff(after.window_wall_ns, before.window_wall_ns);
  const double shard_wall = total_wall * static_cast<double>(shards);
  out["sim.events_per_op"] = ratio(events, ops);
  out["sim.wall_ns_per_event"] = ratio(measured_wall_s * 1e9, events);
  out["sim.windows"] = windows;
  out["sim.events_per_window"] = ratio(events, windows);
  out["sim.cross_posts_per_op"] =
      ratio(diff(after.cross_posts, before.cross_posts), ops);
  out["sim.busy_frac"] = ratio(diff(after.busy_ns, before.busy_ns), shard_wall);
  out["sim.barrier_frac"] =
      ratio(diff(after.barrier_ns, before.barrier_ns), shard_wall);
  out["sim.sync_frac"] =
      ratio(std::max(0.0, total_wall - window_wall), total_wall);
  const double sent = diff(after.packets_sent, before.packets_sent);
  out["net.packets_per_op"] = ratio(sent, ops);
  out["net.drop_frac"] =
      ratio(diff(after.packets_dropped, before.packets_dropped), sent);
  out["net.bytes_copied_per_op"] =
      ratio(diff(after.bytes_copied, before.bytes_copied), ops);
}

}  // namespace

SimTime measure(RoundResult& result, double round_start,
                lnic::sim::ShardedSimulator& sharded,
                const lnic::net::Network& network,
                lnic::loadgen::LoadGenerator& generator) {
  const EngineSnapshot before = snapshot(sharded, network);
  const SimTime sim_start = sharded.now();
  const SimTime limit = sim_start + result.window + lnic::seconds(10);
  result.setup_s = wall_seconds() - round_start;
  const double cpu0 = cpu_seconds();
  const double wall0 = wall_seconds();
  generator.start();
  while (!generator.drained() && sharded.now() < limit) {
    Scoped span("sim.run_until");
    sharded.run_until(std::min(limit, sharded.now() + lnic::milliseconds(1)));
  }
  result.measured_wall_s = wall_seconds() - wall0;
  result.measured_cpu_s = cpu_seconds() - cpu0;
  const EngineSnapshot after = snapshot(sharded, network);
  if (!generator.drained()) result.problems.push_back("load did not drain");
  result.ops.resize(generator.offered());
  result.shards = sharded.shards();
  add_engine_metrics(result.layers, before, after, sharded.shards(),
                     result.measured_wall_s,
                     static_cast<double>(generator.offered()));
  return sim_start;
}

void add_gateway_metrics(LayerMetrics& out, lnic::framework::Gateway& gw,
                         const std::string& name, double calls) {
  auto& metrics = gw.metrics();
  out["framework.invoke_ns"] = spans().mean_ns("framework.invoke");
  out["framework.shed"] = static_cast<double>(
      metrics.counter("gateway_shed_total", {{"fn", name}}).value());
  const auto& depth = metrics.sampler("gateway_queue_depth", {{"fn", name}});
  out["framework.queue_depth_max"] = depth.empty() ? 0.0 : depth.max();
  out["proto.retx_per_call"] =
      ratio(static_cast<double>(gw.rpc().retransmissions()), calls);
  out["proto.rpc_failures"] = static_cast<double>(gw.rpc().failures());
}

void add_nic_metrics(LayerMetrics& out,
                     const std::vector<lnic::nicsim::SmartNic*>& nics,
                     SimTime since, SimTime now) {
  double dropped = 0.0;
  double traps = 0.0;
  double busy_ns = 0.0;
  double thread_ns = 0.0;
  for (const auto* nic : nics) {
    const auto& stats = nic->stats();
    dropped += static_cast<double>(stats.requests_dropped_down +
                                   stats.requests_dropped_queue +
                                   stats.requests_dropped_undeploy);
    traps += static_cast<double>(stats.traps);
    if (const auto* profiler = nic->profiler()) {
      for (std::uint32_t t = 0; t < profiler->threads(); ++t) {
        busy_ns += static_cast<double>(profiler->thread_busy_ns(t, now));
      }
      thread_ns += static_cast<double>(profiler->threads()) *
                   static_cast<double>(now - since);
    }
  }
  out["nicsim.dropped"] = dropped;
  out["nicsim.traps"] = traps;
  out["nicsim.npu_busy_frac"] = ratio(busy_ns, thread_ns);
}

void add_simpath_metrics(LayerMetrics& out,
                         const lnic::trace::TraceRecorder& tracer) {
  static const char* const kComponents[] = {"queue", "proxy", "transport",
                                            "execute", "retransmit"};
  std::map<std::string, lnic::Sampler> values;
  const auto traces = tracer.trace_ids();
  for (const auto trace : traces) {
    const auto path = tracer.critical_path(trace);
    for (const char* component : kComponents) {
      values[component].add(lnic::to_us(path.component(component)));
    }
  }
  for (const char* component : kComponents) {
    out[std::string("simpath.") + component + "_us"] =
        values[component].median();
  }
}

void add_microc_probe(LayerMetrics& out, const lnic::microc::Program& program,
                      lnic::WorkloadId workload,
                      const std::vector<std::vector<std::uint8_t>>& payloads) {
  std::vector<lnic::microc::Invocation> invocations;
  invocations.reserve(payloads.size());
  for (std::size_t i = 0; i < payloads.size(); ++i) {
    lnic::net::LambdaHeader header;
    header.workload_id = workload;
    header.request_id = i + 1;
    invocations.push_back(lnic::proto::build_invocation(
        header, /*src=*/0, lnic::BufferView(payloads[i])));
  }
  Scoped span("microc.probe");
  lnic::microc::ObjectStore store(program);
  const lnic::microc::CostModel cost = lnic::microc::CostModel::npu();
  std::uint64_t instructions = 0;
  std::uint64_t cycles = 0;
  const double t0 = wall_seconds();
  for (const auto& invocation : invocations) {
    lnic::microc::Machine machine(program, cost, &store);
    const auto outcome = machine.run(invocation);
    instructions += outcome.instructions;
    cycles += outcome.cycles;
  }
  const double elapsed = wall_seconds() - t0;
  const double n = static_cast<double>(invocations.size());
  out["microc.instr_per_op"] = ratio(static_cast<double>(instructions), n);
  out["microc.cycles_per_op"] = ratio(static_cast<double>(cycles), n);
  out["microc.ns_per_instr"] =
      ratio(elapsed * 1e9, static_cast<double>(instructions));
}

}  // namespace lnicbench
