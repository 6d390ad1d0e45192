// Request decoding shared by every backend: builds the Micro-C
// invocation (EXTRACTED_HEADERS_T + body + match data) from a request's
// lambda header and payload. The first three payload words carry the
// workload-specific fields (op, key, value — see workloads/lambdas.h
// encoders); image dimensions pack into the op word.
#pragma once

#include <cstdint>
#include <vector>

#include "microc/interp.h"
#include "net/packet.h"
#include "proto/wire.h"

namespace lnic::proto {

/// Fills an invocation from the request header + (reassembled) body.
/// `body` is a zero-copy view shared with the packet buffer.
inline microc::Invocation build_invocation(const net::LambdaHeader& header,
                                           NodeId src, BufferView body) {
  microc::Invocation inv;
  inv.headers.fields[microc::kHdrWorkloadId] = header.workload_id;
  inv.headers.fields[microc::kHdrRequestId] = header.request_id;
  inv.headers.fields[microc::kHdrSrcNode] = src;
  inv.headers.fields[microc::kHdrBodyLen] = body.size();
  const std::uint64_t word0 = load_le<std::uint64_t>(body, 0);
  inv.headers.fields[microc::kHdrOp] = word0;
  inv.headers.fields[microc::kHdrKey] = load_le<std::uint64_t>(body, 8);
  inv.headers.fields[microc::kHdrValue] = load_le<std::uint64_t>(body, 16);
  inv.headers.fields[microc::kHdrImageWidth] = word0 & 0xFFFF;
  inv.headers.fields[microc::kHdrImageHeight] = (word0 >> 16) & 0xFFFF;
  inv.body = std::move(body);
  inv.match_data = {1};  // route metadata (P4 metadata after reduction)
  return inv;
}

}  // namespace lnic::proto
