#include "nicsim/nic.h"

#include <cassert>
#include <utility>

#include "common/flightrec.h"
#include "common/logging.h"
#include "proto/invocation.h"

namespace lnic::nicsim {

using microc::Outcome;
using microc::RunState;
using net::Packet;
using net::PacketKind;

/// One request in flight on an NPU thread (or waiting in the dispatch
/// queue). Owns the invocation (the Machine keeps a pointer into it) and,
/// across external-call round trips, the suspended Machine.
struct SmartNic::Flight {
  net::LambdaHeader lambda;
  std::uint32_t sched_class = 0;  // DRR class (tenant or workload id)
  NodeId reply_to = kInvalidNode;
  microc::Invocation invocation;
  std::unique_ptr<microc::Machine> machine;
  SimTime arrived = 0;
  SimTime dispatched = 0;
  std::uint64_t cycles_reported = 0;  // cycles accounted so far
  Bytes staged_bytes = 0;             // EMEM staging held until completion
  // Tracing/profiling bookkeeping (inert unless a tracer/profiler is on).
  trace::SpanContext ctx;
  trace::SpanId parse_span = trace::kInvalidSpan;
  trace::SpanId queue_span = trace::kInvalidSpan;
  trace::SpanId exec_span = trace::kInvalidSpan;
  trace::SpanId kv_span = trace::kInvalidSpan;
  std::int32_t thread_slot = -1;
};

SmartNic::~SmartNic() = default;

SmartNic::SmartNic(sim::Simulator& sim, net::Network& network,
                   NicConfig config)
    : sim_(sim), network_(network), config_(config), rng_(config.seed) {
  node_ = network_.attach([this](const Packet& p) { handle_packet(p); },
                          &sim_);
}

bool SmartNic::down() const { return sim_.now() < down_until_; }

void SmartNic::enable_profiler(std::size_t max_samples) {
  profiler_ = std::make_unique<NpuProfiler>(
      config_.lambda_threads(), config_.threads_per_core, max_samples);
  slot_busy_.assign(config_.lambda_threads(), false);
}

std::uint32_t SmartNic::sched_class_of(const net::LambdaHeader& header) const {
  if (header.tenant_id != kDefaultTenant) return header.tenant_id;
  const auto it = workload_tenants_.find(header.workload_id);
  if (it != workload_tenants_.end()) return it->second;
  return header.workload_id;
}

void SmartNic::set_tenant(WorkloadId workload, TenantId tenant) {
  if (tenant == kDefaultTenant) {
    workload_tenants_.erase(workload);
  } else {
    workload_tenants_[workload] = tenant;
  }
}

TenantId SmartNic::tenant_of(WorkloadId workload) const {
  const auto it = workload_tenants_.find(workload);
  return it == workload_tenants_.end() ? kDefaultTenant : it->second;
}

void SmartNic::set_tenant_quota(TenantId tenant, TenantQuota quota) {
  tenant_quotas_[tenant] = quota;
}

const TenantUsage* SmartNic::tenant_usage(TenantId tenant) const {
  const auto it = tenant_usage_.find(tenant);
  return it == tenant_usage_.end() ? nullptr : &it->second;
}

void SmartNic::undeploy_tenant(TenantId tenant) {
  const auto queue = wfq_queues_.find(tenant);
  if (queue != wfq_queues_.end()) {
    if (!queue->second.empty()) {
      flightrec::FlightRecorder::global().record(
          sim_.now(), flightrec::Kind::kUndeployDrop, tenant,
          queue->second.size(),
          "tenant " + std::to_string(tenant) + " undeployed with " +
              std::to_string(queue->second.size()) + " queued request(s)");
    }
    for (auto& flight : queue->second) {
      ++stats_.requests_dropped_undeploy;
      inflight_bytes_ -= flight->staged_bytes;
      --queued_;
    }
    wfq_queues_.erase(queue);
  }
  wfq_deficit_.erase(tenant);
  weights_.erase(tenant);
  for (auto it = workload_tenants_.begin(); it != workload_tenants_.end();) {
    if (it->second == tenant) {
      it = workload_tenants_.erase(it);
    } else {
      ++it;
    }
  }
  tenant_quotas_.erase(tenant);
  tenant_usage_.erase(tenant);
}

std::map<TenantId, TenantUsage> SmartNic::compute_tenant_usage(
    const microc::Program& program) const {
  std::map<TenantId, TenantUsage> usage;
  for (const auto& [wid, entry_fn] : program.lambda_entries) {
    const auto assigned = workload_tenants_.find(wid);
    if (assigned == workload_tenants_.end()) continue;  // tenant-less lambda
    TenantUsage& u = usage[assigned->second];
    // Depth-first closure over kCall edges from the lambda's entry; each
    // reachable function and every object it references is charged to
    // the tenant (helpers shared across tenants are double-charged — the
    // conservative reading of a per-tenant store budget).
    std::vector<bool> seen_fn(program.functions.size(), false);
    std::vector<bool> seen_obj(program.objects.size(), false);
    std::vector<std::uint32_t> stack = {entry_fn};
    while (!stack.empty()) {
      const std::uint32_t fn = stack.back();
      stack.pop_back();
      if (fn >= program.functions.size() || seen_fn[fn]) continue;
      seen_fn[fn] = true;
      for (const auto& block : program.functions[fn].blocks) {
        for (const auto& in : block.instrs) {
          u.instr_words += microc::lowered_size(in, program);
          if (in.op == microc::Opcode::kCall) {
            stack.push_back(static_cast<std::uint32_t>(in.imm));
          }
          const bool touches_obj =
              microc::is_memory_op(in.op) ||
              in.op == microc::Opcode::kRespMem ||
              in.op == microc::Opcode::kMemCpy ||
              in.op == microc::Opcode::kGrayscale ||
              in.op == microc::Opcode::kHash ||
              in.op == microc::Opcode::kBodyCopy;
          if (!touches_obj) continue;
          const auto charge = [&](std::uint16_t obj) {
            if (obj >= program.objects.size() || seen_obj[obj]) return;
            seen_obj[obj] = true;
            const auto& object = program.objects[obj];
            u.region_bytes[static_cast<int>(object.region)] += object.size;
          };
          charge(in.obj);
          // obj2 only carries an operand for the two-object copy ops.
          if (in.op == microc::Opcode::kMemCpy ||
              in.op == microc::Opcode::kGrayscale) {
            charge(in.obj2);
          }
        }
      }
    }
  }
  return usage;
}

Status SmartNic::deploy(compiler::CompileOutput firmware) {
  if (firmware.final_words() > config_.instr_store_words) {
    return make_error("deploy: firmware exceeds instruction store");
  }
  // Quota admission runs before any state changes: a rejected deploy —
  // first-time or hot swap — must leave the running firmware serving.
  auto usage = compute_tenant_usage(firmware.program);
  for (const auto& [tenant, u] : usage) {
    const auto q = tenant_quotas_.find(tenant);
    if (q == tenant_quotas_.end()) continue;
    const TenantQuota& quota = q->second;
    if (quota.instr_store_words > 0 &&
        u.instr_words > quota.instr_store_words) {
      flightrec::FlightRecorder::global().record(
          sim_.now(), flightrec::Kind::kQuotaReject, tenant, u.instr_words,
          "tenant " + std::to_string(tenant) +
              " over instruction-store quota");
      return make_error("deploy: tenant " + std::to_string(tenant) +
                        " exceeds instruction-store quota");
    }
    const Bytes limits[4] = {0, quota.ctm_bytes, quota.imem_bytes,
                             quota.emem_bytes};
    for (int region = 1; region < 4; ++region) {
      if (limits[region] > 0 && u.region_bytes[region] > limits[region]) {
        flightrec::FlightRecorder::global().record(
            sim_.now(), flightrec::Kind::kQuotaReject, tenant,
            u.region_bytes[region],
            "tenant " + std::to_string(tenant) + " over " +
                std::string(microc::to_string(
                    static_cast<microc::MemRegion>(region))) +
                " quota");
        return make_error(
            "deploy: tenant " + std::to_string(tenant) + " exceeds " +
            microc::to_string(static_cast<microc::MemRegion>(region)) +
            " quota");
      }
    }
  }
  // Lower the firmware once; a program the verifier rejects never runs.
  auto image = microc::Executable::build(firmware.program, npu_cost_);
  if (!image.ok()) return image.error();
  tenant_usage_ = std::move(usage);
  instr_words_used_ = firmware.final_words();
  const microc::Program& program = firmware.program;
  image_ = std::move(image).value();
  globals_.reset(*image_);
  idle_machines_.clear();  // pooled machines run the previous image
  // Static parse+match cycle estimate for the pipelined mode (§5
  // footnote 4): the parser's field extractions plus the dispatch
  // function's instruction and memory costs.
  {
    const microc::CostModel& npu = npu_cost_;
    std::uint64_t cycles =
        npu.hdr_cycles * program.parsed_fields.size();
    const auto& dispatch = program.functions[program.dispatch_function];
    for (const auto& block : dispatch.blocks) {
      for (const auto& in : block.instrs) {
        cycles += npu.alu_cycles;
        if (microc::is_memory_op(in.op)) {
          cycles += npu.region_read[static_cast<int>(
              program.objects[in.obj].region)];
        }
      }
    }
    // A hit scans roughly half the match chain on average.
    parse_match_cycles_ = cycles / 2;
  }
  // Firmware artifact: lowered words (NFP instruction words are 8 B) plus
  // data-section bytes for initialized objects.
  firmware_bytes_ = firmware.stages.back().code_words * 8;
  for (const auto& obj : program.objects) {
    firmware_bytes_ += obj.initial_data.size();
  }
  if (!config_.allow_hot_swap) {
    // §7: current NICs cannot hot swap; the card is down while loading.
    down_until_ = sim_.now() + config_.firmware_load_time;
  }
  return Status::ok_status();
}

Bytes SmartNic::memory_in_use() const {
  return firmware_bytes_ + globals_.total_bytes() + inflight_bytes_;
}

Bytes SmartNic::region_bytes_used(microc::MemRegion region) const {
  Bytes bytes = 0;
  if (image_) bytes += microc::region_bytes(image_->objects(), region);
  if (region == microc::MemRegion::kEmem) bytes += inflight_bytes_;
  return bytes;
}

void SmartNic::handle_packet(const Packet& packet) {
  switch (packet.kind) {
    case PacketKind::kRequest:
      if (packet.lambda.frag_count > 1) {
        handle_rdma_fragment(packet);
      } else {
        handle_request(packet, packet.payload);
      }
      break;
    case PacketKind::kRdmaWrite:
      handle_rdma_fragment(packet);
      break;
    case PacketKind::kKvResponse:
      handle_kv_response(packet);
      break;
    default:
      break;  // responses/control are not addressed to the NIC data path
  }
}

void SmartNic::handle_request(const Packet& packet, net::BufferView body) {
  if (!image_ || down()) {
    ++stats_.requests_dropped_down;
    return;
  }
  auto flight = std::make_unique<Flight>();
  flight->lambda = packet.lambda;
  flight->reply_to = packet.src;
  flight->arrived = sim_.now();
  if (tracer_ != nullptr && packet.lambda.trace_id != trace::kInvalidTrace) {
    flight->ctx.trace = packet.lambda.trace_id;
    flight->ctx.parent = packet.lambda.parent_span;
  }
  // Multi-packet bodies were already staged into EMEM fragment by
  // fragment (handle_rdma_fragment); the flight now owns those bytes and
  // releases them at completion.
  flight->staged_bytes = body.size() > net::kMaxPayload ? body.size() : 0;

  flight->invocation =
      proto::build_invocation(packet.lambda, packet.src, std::move(body));

  if (config_.pipeline_stages) {
    enter_parse_stage(std::move(flight));
  } else {
    enqueue(std::move(flight));
  }
}

void SmartNic::enter_parse_stage(std::unique_ptr<Flight> flight) {
  if (busy_parse_threads_ >= config_.parse_threads()) {
    if (parse_queue_.size() >= config_.max_queue_depth) {
      ++stats_.requests_dropped_queue;
      inflight_bytes_ -= flight->staged_bytes;
      return;
    }
    parse_queue_.push_back(std::move(flight));
    return;
  }
  ++busy_parse_threads_;
  if (tracer_ != nullptr && flight->ctx.valid()) {
    flight->parse_span = tracer_->start_span(
        flight->ctx.trace, flight->ctx.parent, "nic.parse", sim_.now());
  }
  const SimDuration service = npu_cost_.cycles_to_duration(parse_match_cycles_);
  // The event owns the flight, so a simulator torn down mid-run frees it.
  sim_.schedule(service, [this, flight = std::move(flight)]() mutable {
    if (flight->parse_span != trace::kInvalidSpan) {
      tracer_->end_span(flight->parse_span, sim_.now());
    }
    enqueue(std::move(flight));
    release_parse_thread();
  });
}

void SmartNic::release_parse_thread() {
  --busy_parse_threads_;
  if (!parse_queue_.empty()) {
    auto next = std::move(parse_queue_.front());
    parse_queue_.pop_front();
    enter_parse_stage(std::move(next));
  }
}

void SmartNic::handle_rdma_fragment(const Packet& packet) {
  if (!image_ || down()) {
    ++stats_.requests_dropped_down;
    return;
  }
  const auto key = std::make_pair(packet.src, packet.lambda.request_id);
  Reassembly& re = reassembly_[key];
  if (re.frags.empty()) {
    re.frags.resize(packet.lambda.frag_count);
    re.first = packet;
    if (tracer_ != nullptr &&
        packet.lambda.trace_id != trace::kInvalidTrace) {
      re.span = tracer_->start_span(packet.lambda.trace_id,
                                    packet.lambda.parent_span,
                                    "nic.reassemble", sim_.now());
      tracer_->annotate(re.span, "fragments",
                        std::to_string(packet.lambda.frag_count));
    }
  }
  if (packet.lambda.frag_index >= re.frags.size()) return;  // corrupt
  if (re.frags[packet.lambda.frag_index].empty()) {
    // The RDMA write lands this fragment directly in EMEM (D3).
    inflight_bytes_ += packet.payload.size();
    stats_.peak_inflight_bytes =
        std::max(stats_.peak_inflight_bytes, inflight_bytes_);
    re.frags[packet.lambda.frag_index] = packet.payload;
    ++re.received;
  }
  if (re.received < re.frags.size()) return;

  // Last fragment landed: reorder/assemble in EMEM and fire the event
  // RPC that triggers the lambda (D3). The fragments are contiguous
  // slices of the sender's buffer, so this coalesces without copying.
  net::BufferView body = coalesce(re.frags);
  Packet trigger = re.first;
  if (re.span != trace::kInvalidSpan) {
    tracer_->end_span(re.span, sim_.now());
  }
  reassembly_.erase(key);
  handle_request(trigger, std::move(body));
}

void SmartNic::enqueue(std::unique_ptr<Flight> flight) {
  if (queued_ >= config_.max_queue_depth) {
    ++stats_.requests_dropped_queue;
    inflight_bytes_ -= flight->staged_bytes;
    flightrec::FlightRecorder::global().record(
        sim_.now(), flightrec::Kind::kQueueDrop,
        sched_class_of(flight->lambda), queued_,
        "dispatch queue full, workload " +
            std::to_string(flight->lambda.workload_id));
    return;
  }
  if (tracer_ != nullptr && flight->ctx.valid()) {
    flight->queue_span = tracer_->start_span(
        flight->ctx.trace, flight->ctx.parent, "nic.queue", sim_.now());
    const TenantId tenant = flight->lambda.tenant_id != kDefaultTenant
                                ? flight->lambda.tenant_id
                                : tenant_of(flight->lambda.workload_id);
    if (tenant != kDefaultTenant) {
      tracer_->annotate(flight->queue_span, "tenant", std::to_string(tenant));
    }
  }
  if (config_.dispatch == DispatchPolicy::kWfq) {
    flight->sched_class = sched_class_of(flight->lambda);
    wfq_queues_[flight->sched_class].push_back(std::move(flight));
  } else {
    fifo_.push_back(std::move(flight));
  }
  ++queued_;
  if (profiler_) profiler_->on_queue_depth(sim_.now(), queued_);
  try_dispatch();
}

std::unique_ptr<SmartNic::Flight> SmartNic::pop_next() {
  if (config_.dispatch != DispatchPolicy::kWfq) {
    if (fifo_.empty()) return nullptr;
    auto flight = std::move(fifo_.front());
    fifo_.pop_front();
    --queued_;
    return flight;
  }
  // Deficit round robin across per-class (tenant, or tenant-less
  // workload) queues: each pass grants every backlogged class credit
  // proportional to its weight.
  for (int pass = 0; pass < 2; ++pass) {
    for (auto& [cls, queue] : wfq_queues_) {
      if (queue.empty()) continue;
      auto& deficit = wfq_deficit_[cls];
      if (deficit >= 1) {
        deficit -= 1;
        auto flight = std::move(queue.front());
        queue.pop_front();
        --queued_;
        // Textbook DRR: a class that drains its queue forfeits unused
        // credit. Carrying it over would let a returning class burst
        // ahead of peers that stayed backlogged the whole time.
        if (queue.empty()) deficit = 0;
        return flight;
      }
    }
    // No class had credit: top everything up and retry once.
    bool any = false;
    for (auto& [cls, queue] : wfq_queues_) {
      if (queue.empty()) continue;
      any = true;
      const auto it = weights_.find(cls);
      wfq_deficit_[cls] += it == weights_.end() ? 1 : it->second;
    }
    if (!any) return nullptr;
  }
  return nullptr;
}

void SmartNic::try_dispatch() {
  while (busy_threads_ < config_.lambda_threads() && queued_ > 0) {
    auto flight = pop_next();
    if (!flight) return;
    ++busy_threads_;
    flight->dispatched = sim_.now();
    stats_.queue_wait_ns.add(
        static_cast<double>(flight->dispatched - flight->arrived));
    if (flight->queue_span != trace::kInvalidSpan) {
      tracer_->end_span(flight->queue_span, sim_.now());
      flight->queue_span = trace::kInvalidSpan;
    }
    if (profiler_) {
      // Attribution only: pick the lowest free thread slot. The real
      // scheduler is anonymous (a busy counter), so this adds naming
      // without touching dispatch order or timing.
      for (std::size_t s = 0; s < slot_busy_.size(); ++s) {
        if (!slot_busy_[s]) {
          slot_busy_[s] = true;
          flight->thread_slot = static_cast<std::int32_t>(s);
          break;
        }
      }
      if (flight->thread_slot >= 0) {
        profiler_->on_dispatch(static_cast<std::uint32_t>(flight->thread_slot),
                               flight->lambda.workload_id, sim_.now());
      }
      profiler_->on_queue_depth(sim_.now(), queued_);
    }
    start_execution(std::move(flight));
  }
}

void SmartNic::start_execution(std::unique_ptr<Flight> flight) {
  if (tracer_ != nullptr && flight->ctx.valid()) {
    flight->exec_span = tracer_->start_span(
        flight->ctx.trace, flight->ctx.parent, "nic.execute", sim_.now());
    tracer_->annotate(flight->exec_span, "workload",
                      std::to_string(flight->lambda.workload_id));
    const TenantId tenant = flight->lambda.tenant_id != kDefaultTenant
                                ? flight->lambda.tenant_id
                                : tenant_of(flight->lambda.workload_id);
    if (tenant != kDefaultTenant) {
      tracer_->annotate(flight->exec_span, "tenant", std::to_string(tenant));
    }
  }
  Outcome outcome = run_machine(*flight);
  continue_flight(std::move(flight), std::move(outcome));
}

Outcome SmartNic::run_machine(Flight& flight) {
  if (idle_machines_.empty()) {
    flight.machine = std::make_unique<microc::Machine>(image_, &globals_);
  } else {
    flight.machine = std::move(idle_machines_.back());
    idle_machines_.pop_back();
  }
  return settle_machine(flight, flight.machine->run(flight.invocation));
}

Outcome SmartNic::resume_machine(Flight& flight, std::uint64_t reply) {
  return settle_machine(flight, flight.machine->resume(reply));
}

Outcome SmartNic::settle_machine(Flight& flight, Outcome outcome) {
  // A finished (or trapped) invocation leaves nothing in its Machine:
  // hand it back unless a redeploy replaced the image meanwhile.
  if (outcome.state != RunState::kYield) {
    auto machine = std::move(flight.machine);
    if (&machine->image() == image_.get()) {
      idle_machines_.push_back(std::move(machine));
    }
  }
  return outcome;
}

void SmartNic::continue_flight(std::unique_ptr<Flight> flight,
                               Outcome outcome) {
  std::uint64_t delta = outcome.cycles - flight->cycles_reported;
  // Pipelined mode already charged the parse+match share up front.
  if (config_.pipeline_stages && flight->cycles_reported == 0) {
    delta -= std::min(delta, parse_match_cycles_);
  }
  flight->cycles_reported = outcome.cycles;
  SimDuration service = npu_cost_.cycles_to_duration(delta);
  // Shared-memory arbitration jitter + rare DMA-contention spikes.
  if (config_.jitter_fraction > 0.0) {
    service = static_cast<SimDuration>(
        static_cast<double>(service) *
        (1.0 + rng_.next_double() * config_.jitter_fraction));
  }
  if (config_.hiccup_probability > 0.0 &&
      rng_.next_bool(config_.hiccup_probability)) {
    service += static_cast<SimDuration>(rng_.next_below(
        static_cast<std::uint64_t>(std::max<SimDuration>(config_.hiccup_max, 1))));
  }

  if (outcome.state == RunState::kYield) {
    // The thread blocks (run to completion) while the KV RPC is in
    // flight; send the request after the compute burst that produced it.
    const RequestId token = next_token_++;
    const microc::ExtRequest ext = outcome.ext;
    Flight* raw = flight.get();
    waiting_kv_.emplace(token, std::move(flight));
    sim_.schedule(service, [this, token, ext, raw]() {
      if (tracer_ != nullptr && raw->ctx.valid()) {
        raw->kv_span = tracer_->start_span(raw->ctx.trace, raw->exec_span,
                                           "nic.kv_wait", sim_.now());
      }
      Packet kv;
      kv.src = node_;
      kv.dst = kv_server_;
      kv.kind = PacketKind::kKvRequest;
      kv.lambda.request_id = token;
      kv.lambda.workload_id =
          static_cast<WorkloadId>(ext.kind);  // 0 = GET, 1 = SET
      std::vector<std::uint8_t> kv_body(16);
      for (int i = 0; i < 8; ++i) {
        kv_body[i] = static_cast<std::uint8_t>(ext.key >> (8 * i));
        kv_body[8 + i] = static_cast<std::uint8_t>(ext.value >> (8 * i));
      }
      kv.payload = std::move(kv_body);
      network_.send(std::move(kv));
    });
    return;
  }

  // Done or trapped: hold the thread for the compute burst, then reply.
  sim_.schedule(service, [this, flight = std::move(flight),
                          outcome = std::move(outcome)]() mutable {
    finish_flight(std::move(flight), std::move(outcome));
  });
}

void SmartNic::handle_kv_response(const Packet& packet) {
  const auto it = waiting_kv_.find(packet.lambda.request_id);
  if (it == waiting_kv_.end()) return;  // late duplicate
  auto flight = std::move(it->second);
  waiting_kv_.erase(it);
  if (flight->kv_span != trace::kInvalidSpan) {
    tracer_->end_span(flight->kv_span, sim_.now());
    flight->kv_span = trace::kInvalidSpan;
  }
  std::uint64_t reply = 0;
  for (std::size_t i = 0; i < 8 && i < packet.payload.size(); ++i) {
    reply |= static_cast<std::uint64_t>(packet.payload[i]) << (8 * i);
  }
  Outcome outcome = resume_machine(*flight, reply);
  continue_flight(std::move(flight), std::move(outcome));
}

void SmartNic::finish_flight(std::unique_ptr<Flight> flight,
                             Outcome outcome) {
  inflight_bytes_ -= flight->staged_bytes;
  stats_.service_cycles.add(static_cast<double>(outcome.cycles));
  if (flight->exec_span != trace::kInvalidSpan) {
    tracer_->annotate(flight->exec_span, "cycles",
                      std::to_string(outcome.cycles));
    tracer_->end_span(flight->exec_span, sim_.now());
  }
  if (profiler_ && flight->thread_slot >= 0) {
    profiler_->on_release(static_cast<std::uint32_t>(flight->thread_slot),
                          sim_.now());
    slot_busy_[static_cast<std::size_t>(flight->thread_slot)] = false;
  }

  if (outcome.state == RunState::kTrap) {
    ++stats_.traps;
    LNIC_WARN() << "lambda trap: " << outcome.trap_message;
  } else if (outcome.return_value == 0xFFFF) {
    ++stats_.requests_to_host;  // send_pkt_to_host path
  } else {
    ++stats_.requests_completed;
    if (config_.dispatch == DispatchPolicy::kWfq) {
      ++stats_.completed_by_class[flight->sched_class];
    }
    net::LambdaHeader hdr = flight->lambda;
    // Adopt the response vector into one buffer; fragments are slices.
    auto frags = net::fragment(node_, flight->reply_to, PacketKind::kResponse,
                               hdr, net::BufferView(std::move(outcome.response)));
    for (auto& f : frags) network_.send(std::move(f));
  }
  release_thread();
}

void SmartNic::release_thread() {
  assert(busy_threads_ > 0);
  --busy_threads_;
  try_dispatch();
}

}  // namespace lnic::nicsim
