// Tests for the simulated fabric: delivery latency model, queueing,
// fragmentation, and fault injection.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <vector>

#include "common/rng.h"
#include "net/network.h"
#include "net/packet.h"
#include "net/reassembly.h"
#include "net/trace.h"
#include "sim/simulator.h"

namespace lnic::net {
namespace {

Packet make_packet(NodeId src, NodeId dst, Bytes payload_size) {
  Packet p;
  p.src = src;
  p.dst = dst;
  p.payload = std::vector<std::uint8_t>(payload_size, 0xAB);
  return p;
}

TEST(Packet, WireSizeIncludesFraming) {
  Packet p = make_packet(0, 1, 100);
  EXPECT_EQ(p.wire_size(), kFrameOverhead + kLambdaHeaderSize + 100);
}

TEST(Packet, PayloadStringRoundTrip) {
  const std::string text = "hello lambda";
  EXPECT_EQ(payload_to_string(make_payload(text)), text);
}

TEST(Fragment, SinglePacketWhenSmall) {
  LambdaHeader hdr{.workload_id = 3, .request_id = 9};
  auto frags = fragment(0, 1, PacketKind::kRequest, hdr,
                        std::vector<std::uint8_t>(100, 1));
  ASSERT_EQ(frags.size(), 1u);
  EXPECT_EQ(frags[0].lambda.frag_count, 1u);
  EXPECT_EQ(frags[0].lambda.workload_id, 3u);
}

TEST(Fragment, SplitsAndPreservesBytes) {
  std::vector<std::uint8_t> payload(3 * kMaxPayload + 17);
  for (std::size_t i = 0; i < payload.size(); ++i) {
    payload[i] = static_cast<std::uint8_t>(i * 31);
  }
  LambdaHeader hdr{.workload_id = 1, .request_id = 2};
  auto frags = fragment(0, 1, PacketKind::kRdmaWrite, hdr, payload);
  ASSERT_EQ(frags.size(), 4u);
  std::vector<std::uint8_t> reassembled;
  for (const auto& f : frags) {
    EXPECT_EQ(f.lambda.frag_count, 4u);
    reassembled.insert(reassembled.end(), f.payload.begin(), f.payload.end());
  }
  EXPECT_EQ(reassembled, payload);
}

TEST(Fragment, EmptyPayloadStillProducesOnePacket) {
  auto frags = fragment(0, 1, PacketKind::kRequest, {}, {});
  ASSERT_EQ(frags.size(), 1u);
  EXPECT_TRUE(frags[0].payload.empty());
}

Packet fragment_of(NodeId src, RequestId id, std::uint32_t index,
                   std::uint32_t count, BufferView payload) {
  Packet p;
  p.src = src;
  p.kind = PacketKind::kRdmaWrite;
  p.lambda.request_id = id;
  p.lambda.frag_index = index;
  p.lambda.frag_count = count;
  p.payload = std::move(payload);
  return p;
}

// One seeded table of cases: random cut points (zero-length fragments
// included), arrival orders with duplicates and drops, and malformed
// fragments (out-of-range index, frag_count 0, a frag_count that
// disagrees with the first fragment's) mixed in after the first arrival.
TEST(Reassembler, CompletesOnceWithOriginalBodyWhenEveryIndexArrives) {
  Rng rng(2027);
  for (RequestId round = 0; round < 500; ++round) {
    const auto count = static_cast<std::uint32_t>(1 + rng.next_below(8));
    std::vector<std::uint8_t> bytes(rng.next_below(4 * kMaxPayload));
    for (auto& b : bytes) b = static_cast<std::uint8_t>(rng.next_u64());
    const BufferView body(bytes);
    std::vector<std::size_t> cuts = {0, bytes.size()};
    for (std::uint32_t i = 1; i < count; ++i) {
      cuts.push_back(rng.next_below(bytes.size() + 1));
    }
    std::sort(cuts.begin(), cuts.end());

    // Arrival order: every index one to three times, shuffled; a quarter
    // of the cases lose one index entirely.
    const bool lossy = rng.next_below(4) == 0;
    const std::uint32_t lost = lossy ? rng.next_below(count) : count;
    std::vector<Packet> arrivals;
    std::vector<bool> malformed;
    for (std::uint32_t i = 0; i < count; ++i) {
      if (i == lost) continue;
      const std::uint64_t copies = 1 + rng.next_below(3);
      for (std::uint64_t c = 0; c < copies; ++c) {
        arrivals.push_back(fragment_of(
            1, round, i, count, body.slice(cuts[i], cuts[i + 1] - cuts[i])));
      }
    }
    for (std::size_t i = arrivals.size(); i > 1; --i) {
      std::swap(arrivals[i - 1], arrivals[rng.next_below(i)]);
    }
    malformed.assign(arrivals.size(), false);
    for (int junk = 0; junk < 3 && !arrivals.empty(); ++junk) {
      Packet bad = arrivals.front();
      if (junk == 0) {
        bad.lambda.frag_index = count + rng.next_below(3);
      } else if (junk == 1) {
        bad.lambda.frag_count = 0;
        bad.lambda.frag_index = 0;
      } else {
        bad.lambda.frag_count = count + 1 + rng.next_below(3);
        bad.lambda.frag_index = rng.next_below(bad.lambda.frag_count);
      }
      const std::size_t at = 1 + rng.next_below(arrivals.size());
      arrivals.insert(arrivals.begin() + at, bad);
      malformed.insert(malformed.begin() + at, true);
    }

    Reassembler reassembler;
    std::set<std::uint32_t> seen;
    Bytes held = 0;
    int completions = 0;
    for (std::size_t k = 0; k < arrivals.size() && completions == 0; ++k) {
      const Packet& p = arrivals[k];
      const std::size_t partials = reassembler.partials();
      const Bytes buffered = reassembler.buffered_bytes();
      auto message = reassembler.add(p, /*now=*/0);
      const bool fresh =
          !malformed[k] && seen.insert(p.lambda.frag_index).second;
      if (!fresh) {
        // Malformed or duplicate: rejected without a trace.
        EXPECT_FALSE(message.has_value()) << "round " << round;
        EXPECT_EQ(reassembler.partials(), partials) << "round " << round;
        EXPECT_EQ(reassembler.buffered_bytes(), buffered) << "round " << round;
        continue;
      }
      held += p.payload.size();
      if (seen.size() < count) {
        EXPECT_FALSE(message.has_value()) << "round " << round;
        EXPECT_EQ(reassembler.buffered_bytes(), held) << "round " << round;
        continue;
      }
      ASSERT_TRUE(message.has_value()) << "round " << round;
      ++completions;
      EXPECT_EQ(message->body, body) << "round " << round;
      EXPECT_EQ(message->first.lambda.request_id, round);
      EXPECT_EQ(reassembler.partials(), 0u);
      EXPECT_EQ(reassembler.buffered_bytes(), 0u);
    }
    EXPECT_EQ(completions, lossy ? 0 : 1) << "round " << round;
    if (lossy) {
      EXPECT_EQ(reassembler.partials(), count > 1 ? 1u : 0u);
      EXPECT_EQ(reassembler.buffered_bytes(), held);
    }
  }
}

TEST(Reassembler, DropsPartialsOlderThanTimeoutWhenTheNextFragmentArrives) {
  const BufferView half({1, 2, 3});
  Reassembler r;
  EXPECT_FALSE(r.add(fragment_of(1, 7, 0, 2, half), 0).has_value());
  // Same request id from another source: a separate message.
  EXPECT_FALSE(
      r.add(fragment_of(2, 7, 0, 2, half), Reassembler::kTimeout - 1));
  EXPECT_EQ(r.partials(), 2u);
  EXPECT_EQ(r.buffered_bytes(), 6u);
  // The first partial reaches the timeout: the next arrival drops it.
  EXPECT_FALSE(r.add(fragment_of(1, 8, 0, 2, half), Reassembler::kTimeout));
  EXPECT_EQ(r.partials(), 2u);
  EXPECT_EQ(r.buffered_bytes(), 6u);
  // Its missing half now opens a new message instead of completing.
  EXPECT_FALSE(r.add(fragment_of(1, 7, 1, 2, half), Reassembler::kTimeout));
  EXPECT_EQ(r.partials(), 3u);
  // Completion, then a full retransmit is delivered again (at least once).
  EXPECT_TRUE(r.add(fragment_of(2, 7, 1, 2, half), Reassembler::kTimeout));
  EXPECT_FALSE(r.add(fragment_of(2, 7, 0, 2, half), Reassembler::kTimeout));
  const auto again = r.add(fragment_of(2, 7, 1, 2, half), Reassembler::kTimeout);
  ASSERT_TRUE(again.has_value());
  EXPECT_EQ(again->body, (std::vector<std::uint8_t>{1, 2, 3, 1, 2, 3}));
}

class NetworkTest : public ::testing::Test {
 protected:
  sim::Simulator sim;
};

TEST_F(NetworkTest, DeliversToHandlerWithLatency) {
  Network network(sim);
  std::vector<SimTime> arrivals;
  const NodeId a = network.attach(nullptr);
  const NodeId b =
      network.attach([&](const Packet&) { arrivals.push_back(sim.now()); });
  network.send(make_packet(a, b, 64));
  sim.run();
  ASSERT_EQ(arrivals.size(), 1u);
  // ser(130 B) at 10 G = 104 ns, twice; + 2 * 500 prop + 800 switch.
  EXPECT_NEAR(static_cast<double>(arrivals[0]), 104 + 500 + 800 + 104 + 500, 3);
}

TEST_F(NetworkTest, BackToBackPacketsQueueOnUplink) {
  Network network(sim);
  std::vector<SimTime> arrivals;
  const NodeId a = network.attach(nullptr);
  const NodeId b =
      network.attach([&](const Packet&) { arrivals.push_back(sim.now()); });
  network.send(make_packet(a, b, 1400));
  network.send(make_packet(a, b, 1400));
  sim.run();
  ASSERT_EQ(arrivals.size(), 2u);
  // Second packet waits a full serialization behind the first.
  const double ser = (kFrameOverhead + kLambdaHeaderSize + 1400) * 8.0 / 10.0;
  EXPECT_NEAR(static_cast<double>(arrivals[1] - arrivals[0]), ser, 3);
}

TEST_F(NetworkTest, DropsAreCountedAndNotDelivered) {
  Network network(sim, LinkConfig{}, FaultConfig{.drop_probability = 1.0});
  int delivered = 0;
  const NodeId a = network.attach(nullptr);
  const NodeId b = network.attach([&](const Packet&) { ++delivered; });
  for (int i = 0; i < 10; ++i) network.send(make_packet(a, b, 64));
  sim.run();
  EXPECT_EQ(delivered, 0);
  EXPECT_EQ(network.packets_dropped(), 10u);
  EXPECT_EQ(network.packets_sent(), 10u);
}

TEST_F(NetworkTest, PartialLossDeliversTheRest) {
  Network network(sim, LinkConfig{},
                  FaultConfig{.drop_probability = 0.3}, /*seed=*/42);
  int delivered = 0;
  const NodeId a = network.attach(nullptr);
  const NodeId b = network.attach([&](const Packet&) { ++delivered; });
  const int n = 2000;
  for (int i = 0; i < n; ++i) network.send(make_packet(a, b, 64));
  sim.run();
  EXPECT_EQ(network.packets_dropped() + static_cast<std::uint64_t>(delivered),
            static_cast<std::uint64_t>(n));
  EXPECT_NEAR(static_cast<double>(delivered) / n, 0.7, 0.05);
}

TEST_F(NetworkTest, ReorderInjectionCanInvertArrivalOrder) {
  Network network(
      sim, LinkConfig{},
      FaultConfig{.reorder_probability = 0.5,
                  .reorder_max_extra_delay = microseconds(100)},
      /*seed=*/7);
  std::vector<int> order;
  const NodeId a = network.attach(nullptr);
  NodeId b = network.attach(nullptr);
  network.set_handler(b, [&](const Packet& p) {
    order.push_back(static_cast<int>(p.lambda.frag_index));
  });
  for (int i = 0; i < 50; ++i) {
    Packet p = make_packet(a, b, 64);
    p.lambda.frag_index = static_cast<std::uint32_t>(i);
    network.send(p);
  }
  sim.run();
  ASSERT_EQ(order.size(), 50u);
  EXPECT_FALSE(std::is_sorted(order.begin(), order.end()));
}

TEST_F(NetworkTest, TracerRecordsSendsAndDrops) {
  Network network(sim, LinkConfig{}, FaultConfig{.drop_probability = 0.5},
                  /*seed=*/5);
  PacketTracer tracer;
  network.set_tracer(&tracer);
  const NodeId a = network.attach(nullptr);
  const NodeId b = network.attach([](const Packet&) {});
  for (int i = 0; i < 100; ++i) network.send(make_packet(a, b, 64));
  sim.run();
  EXPECT_EQ(tracer.size(), 100u);
  std::uint64_t dropped = 0;
  for (const auto& r : tracer.records()) {
    EXPECT_EQ(r.src, a);
    EXPECT_EQ(r.dst, b);
    if (r.dropped) ++dropped;
  }
  EXPECT_EQ(dropped, network.packets_dropped());
  const auto summary = tracer.summarize();
  ASSERT_TRUE(summary.count(PacketKind::kRequest));
  EXPECT_EQ(summary.at(PacketKind::kRequest).packets, 100u);
  EXPECT_EQ(summary.at(PacketKind::kRequest).dropped, dropped);
}

TEST_F(NetworkTest, TracerDumpIsReadable) {
  Network network(sim);
  PacketTracer tracer;
  network.set_tracer(&tracer);
  const NodeId a = network.attach(nullptr);
  const NodeId b = network.attach([](const Packet&) {});
  Packet p = make_packet(a, b, 10);
  p.kind = PacketKind::kRdmaWrite;
  p.lambda.workload_id = 4;
  p.lambda.frag_index = 1;
  p.lambda.frag_count = 3;
  network.send(p);
  sim.run();
  const std::string text = tracer.dump();
  EXPECT_NE(text.find("rdma-write"), std::string::npos);
  EXPECT_NE(text.find("frag 2/3"), std::string::npos);
  EXPECT_NE(text.find("wid=4"), std::string::npos);
}

TEST_F(NetworkTest, TracerCapacityBounded) {
  Network network(sim);
  PacketTracer tracer;
  tracer.set_capacity(100);
  network.set_tracer(&tracer);
  const NodeId a = network.attach(nullptr);
  const NodeId b = network.attach([](const Packet&) {});
  for (int i = 0; i < 500; ++i) network.send(make_packet(a, b, 8));
  sim.run();
  EXPECT_LE(tracer.size(), 100u);
}

TEST_F(NetworkTest, TracerEvictionCountedAndReportedInDump) {
  Network network(sim);
  PacketTracer tracer;
  tracer.set_capacity(10);
  network.set_tracer(&tracer);
  const NodeId a = network.attach(nullptr);
  const NodeId b = network.attach([](const Packet&) {});
  for (int i = 0; i < 25; ++i) network.send(make_packet(a, b, 8));
  sim.run();
  EXPECT_EQ(tracer.size(), 10u);
  EXPECT_EQ(tracer.evicted(), 15u);
  EXPECT_NE(tracer.dump().find("15 earlier record(s) evicted"),
            std::string::npos);

  // Shrinking an already-full ring evicts immediately.
  tracer.set_capacity(4);
  EXPECT_EQ(tracer.size(), 4u);
  EXPECT_EQ(tracer.evicted(), 21u);
  tracer.clear();
  EXPECT_EQ(tracer.evicted(), 0u);
}

TEST_F(NetworkTest, ByteAccountingMatchesWireSizes) {
  Network network(sim);
  const NodeId a = network.attach(nullptr);
  const NodeId b = network.attach([](const Packet&) {});
  Packet p = make_packet(a, b, 500);
  network.send(p);
  sim.run();
  EXPECT_EQ(network.bytes_sent(), p.wire_size());
}

}  // namespace
}  // namespace lnic::net
