#include "proto/rdma.h"

#include "net/packet.h"
#include "proto/wire.h"

namespace lnic::proto {

using net::Packet;
using net::PacketKind;

// ------------------------------------------------------- HostMemoryNode

HostMemoryNode::HostMemoryNode(sim::Simulator& sim, net::Network& network,
                               HostMemoryConfig config)
    : sim_(sim), network_(network), config_(config) {
  node_ = network_.attach([this](const Packet& p) { handle_packet(p); },
                          &sim_);
}

void HostMemoryNode::handle_packet(const Packet& packet) {
  if (packet.kind != PacketKind::kRdmaWrite) return;
  if (packet.lambda.frag_count > 1) {
    if (auto message = reassembly_.add(packet, sim_.now())) {
      serve(message->first, std::move(message->body));
    }
  } else {
    serve(packet, packet.payload);
  }
}

net::BufferView HostMemoryNode::synthetic(Bytes len) {
  if (!zeros_ || zeros_->size() < len) {
    zeros_ = Buffer::adopt(std::vector<std::uint8_t>(
        std::max<std::size_t>(len, 4096), 0));
  }
  return net::BufferView(zeros_, 0, len);
}

void HostMemoryNode::serve(const Packet& request, net::BufferView body) {
  const bool is_read = request.lambda.workload_id == kRdmaOpRead;
  SimDuration service;
  net::LambdaHeader header;
  header.workload_id = request.lambda.workload_id;
  header.request_id = request.lambda.request_id;
  net::BufferView reply_body;
  if (is_read) {
    const Bytes len = load_le<std::uint32_t>(body, 8);
    ++stats_.reads;
    stats_.bytes_read += len;
    service = config_.read_service;
    reply_body = synthetic(std::max<Bytes>(len, 1));
  } else {
    ++stats_.writes;
    stats_.bytes_written += body.size();
    service = config_.write_service;
    reply_body = synthetic(8);
  }
  const NodeId dst = request.src;
  sim_.schedule(service, [this, dst, header, reply_body]() {
    for (Packet& p : net::fragment(node_, dst, PacketKind::kRdmaEvent, header,
                                   reply_body)) {
      network_.send(std::move(p));
    }
  });
}

// --------------------------------------------------------------- RdmaQp

RdmaQp::RdmaQp(sim::Simulator& sim, net::Network& network)
    : sim_(sim), network_(network) {
  node_ = network_.attach([this](const Packet& p) { handle_packet(p); },
                          &sim_);
}

net::BufferView RdmaQp::synthetic(Bytes len) {
  if (!zeros_ || zeros_->size() < len) {
    zeros_ = Buffer::adopt(std::vector<std::uint8_t>(
        std::max<std::size_t>(len, 4096), 0));
  }
  return net::BufferView(zeros_, 0, len);
}

void RdmaQp::read(NodeId host, std::uint64_t addr, Bytes len,
                  Completion done) {
  const RequestId id = next_id_++;
  ++stats_.reads;
  stats_.bytes_fetched += len;
  pending_.emplace(id, std::move(done));

  std::vector<std::uint8_t> body;
  body.reserve(12);
  append_le(&body, addr);
  append_le(&body, static_cast<std::uint32_t>(len));
  Packet request;
  request.src = node_;
  request.dst = host;
  request.kind = PacketKind::kRdmaWrite;
  request.lambda.workload_id = kRdmaOpRead;
  request.lambda.request_id = id;
  request.payload = std::move(body);
  network_.send(std::move(request));
}

void RdmaQp::write(NodeId host, std::uint64_t addr, Bytes len,
                   Completion done) {
  (void)addr;  // the host target is a timing server; data is synthetic
  const RequestId id = next_id_++;
  ++stats_.writes;
  stats_.bytes_pushed += len;
  pending_.emplace(id, std::move(done));

  net::LambdaHeader header;
  header.workload_id = kRdmaOpWrite;
  header.request_id = id;
  for (Packet& packet : net::fragment(node_, host, PacketKind::kRdmaWrite,
                                      header, synthetic(std::max<Bytes>(len, 1)))) {
    network_.send(std::move(packet));
  }
}

void RdmaQp::handle_packet(const Packet& packet) {
  if (packet.kind != PacketKind::kRdmaEvent) return;
  const auto it = pending_.find(packet.lambda.request_id);
  if (it == pending_.end()) return;
  if (packet.lambda.frag_count > 1 && !reassembly_.add(packet, sim_.now())) {
    return;  // a fragment of a completion still incomplete
  }
  const Completion done = std::move(it->second);
  pending_.erase(it);
  if (done) done();
}

}  // namespace lnic::proto
