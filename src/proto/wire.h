// Little-endian field helpers and the KV ext-call codec.
//
// A lambda reaches outside state through KV ext-calls (kExtCall): the
// NIC or host runtime suspends the lambda, sends one kKvRequest packet
// to its KV server (CacheServer or TxnStore) and resumes it with the
// reply. The wire format lives only here:
//  - request: op (kKvGet / kKvSet) in LambdaHeader::workload_id, the
//    call token in request_id, body [key u64 LE][value u64 LE];
//  - reply: kKvResponse with the same op and token, body [value u64 LE]
//    (a GET returns the value read, 0 on a miss; a SET echoes the value
//    written).
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/types.h"
#include "net/packet.h"

namespace lnic::proto {

/// The unsigned little-endian T at byte `at` of `body`; bytes past the
/// end of `body` read as zero.
template <typename T>
T load_le(const BufferView& body, std::size_t at) {
  T v = 0;
  for (std::size_t i = 0; i < sizeof(T) && at + i < body.size(); ++i) {
    v = static_cast<T>(v | static_cast<T>(body[at + i]) << (8 * i));
  }
  return v;
}

/// Appends `v` to `out` as sizeof(T) little-endian bytes.
template <typename T>
void append_le(std::vector<std::uint8_t>* out, T v) {
  // One resize per field, not one capacity check per byte: field
  // encoding sits on the RDMA read path of every NIC cache miss.
  const std::size_t at = out->size();
  out->resize(at + sizeof(T));
  for (std::size_t i = 0; i < sizeof(T); ++i) {
    (*out)[at + i] = static_cast<std::uint8_t>(v >> (8 * i));
  }
}

constexpr WorkloadId kKvGet = 0;
constexpr WorkloadId kKvSet = 1;

/// One KV ext-call as the lambda issued it.
struct KvCall {
  WorkloadId op = kKvGet;
  std::uint64_t key = 0;
  std::uint64_t value = 0;  // the value to write (SET only)
};

inline net::Packet encode_kv_call(NodeId src, NodeId dst, RequestId token,
                                  const KvCall& call) {
  net::Packet p;
  p.src = src;
  p.dst = dst;
  p.kind = net::PacketKind::kKvRequest;
  p.lambda.workload_id = call.op;
  p.lambda.request_id = token;
  std::vector<std::uint8_t> body;
  body.reserve(16);
  append_le(&body, call.key);
  append_le(&body, call.value);
  p.payload = std::move(body);
  return p;
}

inline KvCall decode_kv_call(const net::Packet& request) {
  return {request.lambda.workload_id, load_le<std::uint64_t>(request.payload, 0),
          load_le<std::uint64_t>(request.payload, 8)};
}

inline net::Packet encode_kv_reply(NodeId src, NodeId dst, WorkloadId op,
                                   RequestId token, std::uint64_t value) {
  net::Packet p;
  p.src = src;
  p.dst = dst;
  p.kind = net::PacketKind::kKvResponse;
  p.lambda.workload_id = op;
  p.lambda.request_id = token;
  std::vector<std::uint8_t> body;
  body.reserve(8);
  append_le(&body, value);
  p.payload = std::move(body);
  return p;
}

inline std::uint64_t decode_kv_reply(const net::Packet& reply) {
  return load_le<std::uint64_t>(reply.payload, 0);
}

}  // namespace lnic::proto
