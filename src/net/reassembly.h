// Fragment reassembly: the inverse of fragment() (net/packet.h).
//
// Every endpoint that receives multi-packet messages — RDMA writes into
// NIC EMEM (paper §4.2.1 D3), host-side request bodies, RPC responses —
// reassembles them here, under one set of rules:
//  - receipt is tracked per fragment index, so a duplicate (zero-length
//    ones included) never counts twice;
//  - the first accepted fragment fixes frag_count, and a fragment that
//    disagrees with it, has frag_count 0 or an out-of-range index is
//    dropped;
//  - a dropped fragment leaves no state behind;
//  - the last missing fragment completes the message, whose body is the
//    coalesce() of the fragments (zero-copy for slices of one buffer).
//
// Weakly-consistent RPC retransmits whole messages, so a late duplicate
// can open a message that never completes. Reassembler drops such a
// partial once it is older than kTimeout (cf. Linux's ipfrag_time). The
// check runs when the next fragment arrives, so no event is scheduled.
// A full retransmit that arrives after completion reassembles again and
// is delivered again: delivery stays at-least-once.
#pragma once

#include <algorithm>
#include <cstdint>
#include <map>
#include <optional>
#include <utility>
#include <vector>

#include "net/packet.h"

namespace lnic::net {

/// The fragments received so far of one message.
class FragmentSet {
 public:
  /// Whether a header could belong to any message: frag_count > 0 and
  /// frag_index in range.
  static bool well_formed(const LambdaHeader& header) {
    return header.frag_count > 0 && header.frag_index < header.frag_count;
  }

  /// Accepts the fragment unless it is malformed, disagrees with the
  /// frag_count of the fragments already held, or repeats an index.
  bool add(const LambdaHeader& header, const BufferView& payload) {
    if (!well_formed(header)) return false;
    if (frags_.empty()) {
      frags_.resize(header.frag_count);
      got_.assign(header.frag_count, false);
    } else if (header.frag_count != frags_.size()) {
      return false;
    }
    if (got_[header.frag_index]) return false;
    got_[header.frag_index] = true;
    frags_[header.frag_index] = payload;
    ++received_;
    bytes_ += payload.size();
    return true;
  }

  /// Every index has arrived.
  bool complete() const {
    return !frags_.empty() && received_ == frags_.size();
  }
  /// Payload bytes held.
  Bytes bytes() const { return bytes_; }
  /// The reassembled body of a complete set.
  BufferView body() const { return coalesce(frags_); }
  void clear() { *this = FragmentSet(); }

 private:
  std::vector<BufferView> frags_;
  std::vector<bool> got_;
  std::uint32_t received_ = 0;
  Bytes bytes_ = 0;
};

/// Reassembles messages keyed by (source node, request id).
class Reassembler {
 public:
  /// A message that has not completed this long after its first
  /// fragment arrived is dropped.
  static constexpr SimDuration kTimeout = seconds(30);

  struct Message {
    Packet first;        // first fragment to arrive: the header template
    BufferView body;
    std::uint64_t tag;   // on_open's result for this message
  };

  /// Offers a fragment that arrived at `now`; returns the message when
  /// this fragment completes it. `on_open()` runs when the fragment
  /// opens a new message, and its result rides along as the tag.
  template <typename OnOpen>
  std::optional<Message> add(const Packet& packet, SimTime now,
                             OnOpen&& on_open) {
    expire(now);
    if (!FragmentSet::well_formed(packet.lambda)) return std::nullopt;
    const auto [it, opened] =
        partials_.try_emplace({packet.src, packet.lambda.request_id});
    Partial& partial = it->second;
    if (opened) {
      partial.first = packet;
      partial.opened = now;
      partial.tag = on_open();
      next_expiry_ = std::min(next_expiry_, now + kTimeout);
    }
    if (!partial.frags.add(packet.lambda, packet.payload)) return std::nullopt;
    bytes_ += packet.payload.size();
    if (!partial.frags.complete()) return std::nullopt;
    bytes_ -= partial.frags.bytes();
    Message message{std::move(partial.first), partial.frags.body(),
                    partial.tag};
    partials_.erase(it);
    return message;
  }

  std::optional<Message> add(const Packet& packet, SimTime now) {
    return add(packet, now, [] { return std::uint64_t{0}; });
  }

  /// Payload bytes held by incomplete messages.
  Bytes buffered_bytes() const { return bytes_; }
  /// Incomplete messages held.
  std::size_t partials() const { return partials_.size(); }

 private:
  struct Partial {
    FragmentSet frags;
    Packet first;
    SimTime opened = 0;
    std::uint64_t tag = 0;
  };

  void expire(SimTime now) {
    if (now < next_expiry_) return;
    next_expiry_ = kSimTimeMax;
    for (auto it = partials_.begin(); it != partials_.end();) {
      const SimTime deadline = it->second.opened + kTimeout;
      if (deadline <= now) {
        bytes_ -= it->second.frags.bytes();
        it = partials_.erase(it);
      } else {
        next_expiry_ = std::min(next_expiry_, deadline);
        ++it;
      }
    }
  }

  std::map<std::pair<NodeId, RequestId>, Partial> partials_;
  Bytes bytes_ = 0;
  SimTime next_expiry_ = kSimTimeMax;
};

}  // namespace lnic::net
