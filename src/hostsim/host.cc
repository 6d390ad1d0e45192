#include "hostsim/host.h"

#include <cassert>
#include <functional>

#include "common/logging.h"
#include "proto/invocation.h"

namespace lnic::hostsim {

using microc::Outcome;
using microc::RunState;
using net::Packet;
using net::PacketKind;

struct HostServer::Job {
  net::LambdaHeader lambda;
  NodeId reply_to = kInvalidNode;
  microc::Invocation invocation;
  std::unique_ptr<microc::Machine> machine;
  std::uint64_t cycles_reported = 0;
  SimTime enqueued = 0;
  bool resumed = false;        // continuing after a KV reply
  std::uint64_t pending_reply = 0;
  SimDuration rx_cost = 0;     // kernel ingress work to charge
  Outcome outcome;             // filled by the GIL stage
  std::uint8_t next_tag = 0;   // queued-stage continuation (Next)
  // Tracing bookkeeping (inert without an attached recorder).
  trace::SpanContext ctx;
  trace::SpanId queue_span = trace::kInvalidSpan;
  trace::SpanId stage_span = trace::kInvalidSpan;  // current kernel/runtime
  trace::SpanId exec_span = trace::kInvalidSpan;   // host.execute (GIL)
  trace::SpanId kv_span = trace::kInvalidSpan;
};

HostServer::~HostServer() = default;

HostServer::HostServer(sim::Simulator& sim, net::Network& network,
                       HostConfig config)
    : sim_(sim), network_(network), config_(config), rng_(config.seed) {
  node_ = network_.attach([this](const Packet& p) { handle_packet(p); },
                          &sim_);
  kernel_.capacity = config_.cores;
  runtime_.capacity = config_.serialize_runtime ? 1 : config_.cores;
  gil_.capacity = std::min(config_.gil_limit, config_.cores);
}

Status HostServer::deploy(microc::Program program) {
  auto image = microc::Executable::build(program, config_.cost);
  if (!image.ok()) return image.error();
  image_ = std::move(image).value();
  globals_.reset(*image_);
  return Status::ok_status();
}

SimDuration HostServer::jittered(SimDuration base) {
  if (config_.jitter_fraction <= 0.0) return base;
  return static_cast<SimDuration>(
      static_cast<double>(base) *
      (1.0 + rng_.next_double() * config_.jitter_fraction));
}

void HostServer::handle_packet(const Packet& packet) {
  switch (packet.kind) {
    case PacketKind::kRequest:
    case PacketKind::kRdmaWrite: {
      if (packet.lambda.frag_count > 1) {
        const auto key = std::make_pair(packet.src, packet.lambda.request_id);
        Reassembly& re = reassembly_[key];
        if (re.frags.empty()) {
          re.frags.resize(packet.lambda.frag_count);
          re.first = packet;
        }
        if (packet.lambda.frag_index >= re.frags.size()) return;
        if (re.frags[packet.lambda.frag_index].empty()) {
          re.frags[packet.lambda.frag_index] = packet.payload;
          ++re.received;
        }
        if (re.received < re.frags.size()) return;
        // Contiguous slices of the sender's buffer: no copy.
        net::BufferView body = coalesce(re.frags);
        Packet first = re.first;
        reassembly_.erase(key);
        handle_request(first, std::move(body));
      } else {
        handle_request(packet, packet.payload);
      }
      break;
    }
    case PacketKind::kKvResponse:
      handle_kv_response(packet);
      break;
    default:
      break;
  }
}

void HostServer::handle_request(const Packet& packet, net::BufferView body) {
  if (!image_) {
    ++stats_.requests_dropped;
    return;
  }
  auto job = std::make_unique<Job>();
  job->lambda = packet.lambda;
  job->reply_to = packet.src;
  if (tracer_ != nullptr && packet.lambda.trace_id != trace::kInvalidTrace) {
    job->ctx.trace = packet.lambda.trace_id;
    job->ctx.parent = packet.lambda.parent_span;
  }
  const std::uint32_t frags =
      std::max<std::uint32_t>(packet.lambda.frag_count, 1);
  job->rx_cost = config_.rx_per_packet * frags;

  job->invocation =
      proto::build_invocation(packet.lambda, packet.src, std::move(body));

  admit(std::move(job));
}

void HostServer::admit(std::unique_ptr<Job> job) {
  if (admission_.size() >= config_.max_queue_depth) {
    ++stats_.requests_dropped;
    return;
  }
  job->enqueued = sim_.now();
  if (tracer_ != nullptr && job->ctx.valid()) {
    job->queue_span = tracer_->start_span(job->ctx.trace, job->ctx.parent,
                                          "host.queue", sim_.now());
    if (job->lambda.tenant_id != kDefaultTenant) {
      tracer_->annotate(job->queue_span, "tenant",
                        std::to_string(job->lambda.tenant_id));
    }
  }
  admission_.push_back(std::move(job));
  try_admit();
}

void HostServer::try_admit() {
  while (active_jobs_ < config_.worker_threads && !admission_.empty()) {
    auto job = std::move(admission_.front());
    admission_.pop_front();
    ++active_jobs_;
    stats_.peak_active_jobs = std::max(stats_.peak_active_jobs, active_jobs_);
    stats_.queue_wait_ns.add(static_cast<double>(sim_.now() - job->enqueued));
    if (job->queue_span != trace::kInvalidSpan) {
      tracer_->end_span(job->queue_span, sim_.now());
      job->queue_span = trace::kInvalidSpan;
    }
    const SimDuration rx = jittered(job->rx_cost);
    enter_stage(kernel_, std::move(job), rx, Next::kRuntime);
  }
}

const char* HostServer::stage_span_name(const Stage& stage) const {
  if (&stage == &kernel_) return "host.kernel";
  if (&stage == &runtime_) return "host.runtime";
  return "host.execute";
}

void HostServer::enter_stage(Stage& stage, std::unique_ptr<Job> job,
                             SimDuration service, Next next) {
  if (tracer_ != nullptr && job->ctx.valid() &&
      job->stage_span == trace::kInvalidSpan) {
    // Covers both the stage's queue wait and its service time.
    job->stage_span = tracer_->start_span(job->ctx.trace, job->ctx.parent,
                                          stage_span_name(stage), sim_.now());
  }
  if (stage.busy < stage.capacity) {
    ++stage.busy;
    ++busy_units_;
    stats_.busy_time += service;
    Job* raw = job.release();
    sim_.schedule(service, [this, &stage, raw, next]() {
      stage_done(stage, std::unique_ptr<Job>(raw), next);
    });
  } else {
    // The kernel stage serves both ingress (kRuntime / kGil for resumes)
    // and egress (kDone); remember where this job goes next.
    job->next_tag = static_cast<std::uint8_t>(next);
    stage.queue.emplace_back(std::move(job), service);
  }
}

void HostServer::stage_done(Stage& stage, std::unique_ptr<Job> job,
                            Next next) {
  if (job->stage_span != trace::kInvalidSpan) {
    tracer_->end_span(job->stage_span, sim_.now());
    job->stage_span = trace::kInvalidSpan;
  }
  // Free the unit (or hand it straight to the next queued item).
  if (!stage.queue.empty()) {
    auto [queued, service] = std::move(stage.queue.front());
    stage.queue.pop_front();
    const Next queued_next = static_cast<Next>(queued->next_tag);
    stats_.busy_time += service;
    Job* raw = queued.release();
    sim_.schedule(service, [this, &stage, raw, queued_next]() {
      stage_done(stage, std::unique_ptr<Job>(raw), queued_next);
    });
  } else {
    --stage.busy;
    --busy_units_;
  }

  switch (next) {
    case Next::kRuntime:
      enter_stage(runtime_, std::move(job), jittered(config_.per_request),
                  Next::kGil);
      break;
    case Next::kGil:
      run_gil(std::move(job));
      break;
    case Next::kTx:
      // unused marker; egress scheduled directly with kDone
      break;
    case Next::kDone:
      finish_job(std::move(job));
      break;
  }
}

void HostServer::run_gil(std::unique_ptr<Job> job) {
  if (tracer_ != nullptr && job->ctx.valid() &&
      job->exec_span == trace::kInvalidSpan) {
    // Covers GIL queue wait + context switch + interpreted execution;
    // a KV resume opens a fresh host.execute span.
    job->exec_span = tracer_->start_span(job->ctx.trace, job->ctx.parent,
                                         "host.execute", sim_.now());
    if (job->lambda.tenant_id != kDefaultTenant) {
      tracer_->annotate(job->exec_span, "tenant",
                        std::to_string(job->lambda.tenant_id));
    }
  }
  // The GIL stage computes its own service time at grant (context switch
  // + interpreted execution), so acquire manually.
  if (gil_.busy < gil_.capacity) {
    ++gil_.busy;
    ++busy_units_;
    SimDuration service = 0;
    if (gil_last_workload_ != job->lambda.workload_id) {
      service += config_.context_switch;
      ++stats_.context_switches;
      gil_last_workload_ = job->lambda.workload_id;
    }
    Outcome outcome;
    if (!job->machine) {
      job->machine = std::make_unique<microc::Machine>(image_, &globals_);
      outcome = job->machine->run(job->invocation);
    } else {
      outcome = job->machine->resume(job->pending_reply);
    }
    const std::uint64_t delta = outcome.cycles - job->cycles_reported;
    job->cycles_reported = outcome.cycles;
    SimDuration exec = jittered(config_.cost.cycles_to_duration(delta));
    if (config_.hiccup_probability > 0.0 &&
        rng_.next_bool(config_.hiccup_probability)) {
      exec += static_cast<SimDuration>(rng_.next_below(
          static_cast<std::uint64_t>(std::max<SimDuration>(
              config_.hiccup_max, 1))));
    }
    service += exec;
    stats_.busy_time += service;
    job->outcome = std::move(outcome);
    Job* raw = job.release();
    sim_.schedule(service, [this, raw]() {
      auto owned = std::unique_ptr<Job>(raw);
      if (owned->exec_span != trace::kInvalidSpan) {
        tracer_->end_span(owned->exec_span, sim_.now());
        owned->exec_span = trace::kInvalidSpan;
      }
      // Release the GIL (or pass it to the next queued lambda).
      if (!gil_.queue.empty()) {
        auto [queued, unused] = std::move(gil_.queue.front());
        (void)unused;
        gil_.queue.pop_front();
        --gil_.busy;
        --busy_units_;
        run_gil(std::move(queued));
      } else {
        --gil_.busy;
        --busy_units_;
      }

      if (owned->outcome.state == RunState::kYield) {
        // Blocked on the KV store: keep the service thread, release CPU.
        const microc::ExtRequest ext = owned->outcome.ext;
        const RequestId token = next_token_++;
        if (tracer_ != nullptr && owned->ctx.valid()) {
          owned->kv_span = tracer_->start_span(
              owned->ctx.trace, owned->ctx.parent, "host.kv_wait", sim_.now());
        }
        waiting_kv_.emplace(token, std::move(owned));
        Packet kv;
        kv.src = node_;
        kv.dst = kv_server_;
        kv.kind = PacketKind::kKvRequest;
        kv.lambda.request_id = token;
        kv.lambda.workload_id = static_cast<WorkloadId>(ext.kind);
        std::vector<std::uint8_t> kv_body(16);
        for (int i = 0; i < 8; ++i) {
          kv_body[i] = static_cast<std::uint8_t>(ext.key >> (8 * i));
          kv_body[8 + i] =
              static_cast<std::uint8_t>(ext.value >> (8 * i));
        }
        kv.payload = std::move(kv_body);
        network_.send(std::move(kv));
        return;
      }
      // Egress: kernel tx work for every response fragment.
      const std::uint32_t tx_frags = static_cast<std::uint32_t>(
          owned->outcome.response.empty()
              ? 1
              : (owned->outcome.response.size() + net::kMaxPayload - 1) /
                    net::kMaxPayload);
      enter_stage(kernel_, std::move(owned),
                  jittered(config_.tx_per_packet * tx_frags), Next::kDone);
    });
  } else {
    gil_.queue.emplace_back(std::move(job), 0);
  }
}

void HostServer::handle_kv_response(const Packet& packet) {
  const auto it = waiting_kv_.find(packet.lambda.request_id);
  if (it == waiting_kv_.end()) return;
  auto job = std::move(it->second);
  waiting_kv_.erase(it);
  if (job->kv_span != trace::kInvalidSpan) {
    tracer_->end_span(job->kv_span, sim_.now());
    job->kv_span = trace::kInvalidSpan;
  }
  std::uint64_t reply = 0;
  for (std::size_t i = 0; i < 8 && i < packet.payload.size(); ++i) {
    reply |= static_cast<std::uint64_t>(packet.payload[i]) << (8 * i);
  }
  job->pending_reply = reply;
  job->resumed = true;
  // The reply's kernel rx, then back to the interpreter (fresh GIL
  // acquisition, possibly another context switch).
  enter_stage(kernel_, std::move(job), jittered(config_.rx_per_packet),
              Next::kGil);
}

void HostServer::finish_job(std::unique_ptr<Job> job) {
  assert(active_jobs_ > 0);
  --active_jobs_;
  if (job->outcome.state == RunState::kTrap) {
    ++stats_.requests_dropped;
    LNIC_WARN() << "host lambda trap: " << job->outcome.trap_message;
  } else {
    ++stats_.requests_completed;
    auto frags =
        net::fragment(node_, job->reply_to, PacketKind::kResponse, job->lambda,
                      net::BufferView(std::move(job->outcome.response)));
    for (auto& f : frags) network_.send(std::move(f));
  }
  try_admit();
}

}  // namespace lnic::hostsim
