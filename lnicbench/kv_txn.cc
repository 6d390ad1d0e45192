// kv_txn: a kvstore::TxnStore (NIC-cached B+-tree over one-sided-RDMA
// host memory, strict 2PL) on one shard, fed open-loop Poisson
// transactions by a client node speaking the store's kKvRequest wire
// protocol. The mix is YCSB-A-shaped: half read-only multi-key
// transactions, half transactions of kRmw increments, keys Zipf 0.99
// over many more records than the NIC caches, so misses go over RDMA. No
// lambda runs: host time goes to sim, net, proto::rdma and kvstore.
#include <map>
#include <memory>

#include "common.h"
#include "kvstore/txn.h"
#include "loadgen/generator.h"

namespace lnicbench {

using namespace lnic;

namespace {

constexpr double kRateRps = 20'000.0;
constexpr double kKeyZipf = 0.99;
constexpr std::size_t kRecordsLog2 = 16;
constexpr std::size_t kCacheNodes = 256;
constexpr std::size_t kOpsPerTxn = 4;

/// The preloaded value of `key`.
kvstore::Value initial_value(kvstore::Key key) { return key * 3 + 1; }

struct Pending {
  std::uint64_t id = 0;
  SimTime intended = 0;
  std::uint32_t ops = 0;
  std::uint32_t increments = 0;
  loadgen::CompletionFn done;
};

}  // namespace

RoundResult run_kv_txn(const RoundConfig& config) {
  RoundResult result;
  const double round_start = wall_seconds();
  result.window = config.tiny ? milliseconds(10) : milliseconds(500);
  result.deadline = milliseconds(1);
  const std::size_t records = std::size_t{1} << kRecordsLog2;

  std::unique_ptr<sim::ShardedSimulator> sharded;
  std::unique_ptr<net::Network> network;
  std::unique_ptr<kvstore::TxnStore> store;
  {
    Scoped span("core.build");
    sharded = std::make_unique<sim::ShardedSimulator>(1);
    network = std::make_unique<net::Network>(*sharded, net::LinkConfig{},
                                             net::FaultConfig{}, config.seed);
    kvstore::TxnStoreConfig store_config;
    store_config.nic_cache_nodes = kCacheNodes;
    store_config.protocol = kvstore::LockProtocol::kNoWait;
    store = std::make_unique<kvstore::TxnStore>(sharded->shard(0), *network,
                                                store_config);
  }
  std::uint64_t preloaded_sum = 0;
  {
    Scoped span("kvstore.preload");
    for (kvstore::Key key = 0; key < records; ++key) {
      store->load(key, initial_value(key));
      preloaded_sum += initial_value(key);
    }
  }

  sim::Simulator& sim0 = sharded->shard(0);
  std::map<RequestId, Pending> pending;
  std::uint64_t committed_increments = 0;
  const NodeId client = network->attach(
      [&](const net::Packet& packet) {
        if (packet.kind != net::PacketKind::kKvResponse) return;
        const auto it = pending.find(packet.lambda.request_id);
        if (it == pending.end()) return;
        Scoped span("op.complete");
        Pending p = std::move(it->second);
        pending.erase(it);
        const net::BufferView& body = packet.payload;
        const SimDuration latency = sim0.now() - p.intended;
        const std::uint64_t hash = fnv1a(body.data(), body.size());
        constexpr auto kCommitted =
            static_cast<std::uint8_t>(kvstore::TxnStatus::kCommitted);
        const bool committed = !body.empty() && body[0] == kCommitted;
        if (!committed) {
          record_op(result.ops, p.id, OpStatus::kFailed, latency, hash);
          p.done(false);
          return;
        }
        // Every read and every increment yields one read value; the
        // reply is [status u8][retries u8][reads u16][read_xor u64].
        const std::uint32_t reads =
            body.size() >= 4
                ? static_cast<std::uint32_t>(body[2] | (body[3] << 8))
                : 0;
        committed_increments += p.increments;
        record_op(result.ops, p.id,
                  reads == p.ops ? OpStatus::kOk : OpStatus::kWrong, latency,
                  hash);
        p.done(true);
      },
      &sim0);

  // Ranks scatter over the keyspace through an odd-multiplier bijection
  // so hot keys land on different leaves.
  loadgen::ZipfSelector key_zipf(records, kKeyZipf, config.seed ^ 0x7a11ull);
  Rng mix_rng(config.seed ^ 0x3c1dull);
  RequestId next_request = 1;

  loadgen::LoadGenConfig lg;
  lg.arrivals = loadgen::ArrivalSpec::poisson(kRateRps);
  lg.duration = result.window;
  lg.seed = config.seed;
  lg.slo.deadline = result.deadline;
  auto sink = [&](const loadgen::Request& request,
                  loadgen::CompletionFn done) {
    Scoped sink_span("loadgen.sink");
    const bool update = mix_rng.next_bool(0.5);
    kvstore::TxnRequest txn;
    for (std::size_t i = 0; i < kOpsPerTxn; ++i) {
      kvstore::TxnOp op;
      op.kind = update ? kvstore::OpKind::kRmw : kvstore::OpKind::kRead;
      op.key = (key_zipf.sample() * 0x9E3779B97F4A7C15ull) & (records - 1);
      txn.ops.push_back(op);
    }
    Pending p;
    p.id = request.id;
    p.intended = request.intended;
    p.ops = static_cast<std::uint32_t>(txn.ops.size());
    p.increments = update ? p.ops : 0;
    p.done = std::move(done);
    net::Packet packet;
    packet.src = client;
    packet.dst = store->node();
    packet.kind = net::PacketKind::kKvRequest;
    packet.lambda.workload_id = kvstore::TxnStore::kOpTxn;
    packet.lambda.request_id = next_request;
    packet.payload = net::BufferView(kvstore::TxnStore::encode_txn(txn));
    pending.emplace(next_request++, std::move(p));
    Scoped send_span("net.send");
    network->send(std::move(packet));
  };
  // The request body is the encoded transaction; loadgen's payload size
  // is not used.
  loadgen::LoadGenerator generator(sim0, lg, {loadgen::FunctionProfile{"txn"}},
                                   sink);

  measure(result, round_start, *sharded, *network, generator);

  // Lost updates and leaked aborted writes both break this identity.
  std::vector<std::pair<kvstore::Key, kvstore::Value>> rows;
  store->tree().scan(0, store->tree().size(), &rows);
  std::uint64_t final_sum = 0;
  for (const auto& row : rows) final_sum += row.second;
  const std::uint64_t expected_delta =
      committed_increments + (config.corrupt_expected ? 1 : 0);
  if (rows.size() != records || final_sum - preloaded_sum != expected_delta) {
    result.problems.push_back(
        "kv sum check: " + std::to_string(rows.size()) + " rows, delta " +
        std::to_string(final_sum - preloaded_sum) +
        " != committed increments " + std::to_string(expected_delta));
  }

  const double ops = static_cast<double>(generator.offered());
  LayerMetrics& m = result.layers;
  const auto& stats = store->stats();
  const auto& qp = store->qp_stats();
  const double attempts = static_cast<double>(stats.commits + stats.aborts);
  m["kvstore.commit_ratio"] =
      attempts > 0 ? static_cast<double>(stats.commits) / attempts : 0.0;
  m["kvstore.cache_hit_ratio"] = store->cache_stats().hit_ratio();
  m["kvstore.page_fetches_per_txn"] =
      ops > 0 ? static_cast<double>(stats.page_fetches) / ops : 0.0;
  m["kvstore.lock_waits_per_txn"] =
      ops > 0 ? static_cast<double>(stats.lock_waits) / ops : 0.0;
  m["proto.rdma_ops_per_txn"] =
      ops > 0 ? static_cast<double>(qp.reads + qp.writes) / ops : 0.0;
  return result;
}

}  // namespace lnicbench
