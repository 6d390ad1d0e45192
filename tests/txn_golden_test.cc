// Golden outcomes of the transactional store: seeded transaction mixes
// of every op kind (reads, RMWs, blind writes, inserts, removes, scans)
// over a small-order B+-tree, so leaves split, merge and borrow while
// other transactions are in flight, run under NO_WAIT and WAIT_DIE at
// NIC cache sizes 0, 16 and 256. The expected file records, per
// transaction, its outcome and completion time, and per mix the cache,
// QP, host and store counters plus a checksum of the final tree. A change
// to the store, the tree, the node cache or the RDMA path must reproduce
// it line for line; on a mismatch the actual lines are written to
// txn_outcomes.actual.txt in the working directory for diffing.
#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common/rng.h"
#include "kvstore/txn.h"
#include "net/network.h"
#include "sim/simulator.h"

namespace lnic::kvstore {
namespace {

constexpr Key kKeySpace = 384;
constexpr int kTxnsPerMix = 240;

OpKind pick_kind(Rng& rng) {
  const std::uint64_t r = rng.next_below(100);
  if (r < 25) return OpKind::kRead;
  if (r < 45) return OpKind::kRmw;
  if (r < 60) return OpKind::kWrite;
  if (r < 75) return OpKind::kInsert;
  if (r < 90) return OpKind::kRemove;
  return OpKind::kScan;
}

const char* status_name(TxnStatus status) {
  return status == TxnStatus::kCommitted ? "commit" : "abort";
}

/// Runs one seeded mix to completion and appends its outcome lines.
void run_mix(LockProtocol protocol, std::size_t cache_nodes,
             std::uint64_t seed, std::vector<std::string>* lines) {
  sim::Simulator sim;
  net::Network network(sim);
  TxnStoreConfig config;
  config.btree.order = 4;  // small nodes: frequent splits, merges, borrows
  config.nic_cache_nodes = cache_nodes;
  config.protocol = protocol;
  TxnStore store(sim, network, config);
  // Every other key preloaded: inserts fill gaps, removes open new ones.
  for (Key k = 0; k < kKeySpace; k += 2) store.load(k, k * 7 + 1);

  std::ostringstream head;
  head << "mix " << to_string(protocol) << " cache=" << cache_nodes
       << " seed=" << seed;
  lines->push_back(head.str());

  Rng rng(seed);
  std::vector<std::string> outcomes(kTxnsPerMix, "<pending>");
  SimTime at = 0;
  for (int i = 0; i < kTxnsPerMix; ++i) {
    // Arrivals ~1.5 us apart on average: many transactions overlap.
    at += static_cast<SimTime>(rng.next_below(3000));
    TxnRequest request;
    const std::uint64_t ops = 1 + rng.next_below(5);
    for (std::uint64_t j = 0; j < ops; ++j) {
      TxnOp op;
      op.kind = pick_kind(rng);
      op.key = rng.next_below(kKeySpace);
      op.value = rng.next_below(1 << 16);
      if (op.kind == OpKind::kScan) {
        op.scan_len = static_cast<std::uint16_t>(1 + rng.next_below(12));
      }
      request.ops.push_back(op);
    }
    sim.schedule_at(at, [&, i, request]() mutable {
      store.execute(std::move(request), [&, i](const TxnResult& r) {
        std::ostringstream line;
        line << "txn " << i << " " << status_name(r.status)
             << " retries=" << r.retries << " reads=" << r.reads
             << " xor=" << std::hex << r.read_xor << std::dec
             << " t=" << sim.now();
        outcomes[i] = line.str();
      });
    });
  }
  sim.run();
  lines->insert(lines->end(), outcomes.begin(), outcomes.end());

  const NodeCacheStats& cache = store.cache_stats();
  const proto::RdmaQpStats& qp = store.qp_stats();
  const proto::HostMemoryStats& host = store.host_stats();
  const TxnStoreStats& stats = store.stats();
  std::ostringstream tail;
  tail << "cache hits=" << cache.hits << " misses=" << cache.misses
       << " evictions=" << cache.evictions
       << " invalidations=" << cache.invalidations;
  lines->push_back(tail.str());
  tail.str("");
  tail << "qp reads=" << qp.reads << " writes=" << qp.writes
       << " fetched=" << qp.bytes_fetched << " pushed=" << qp.bytes_pushed
       << " host_reads=" << host.reads << " host_writes=" << host.writes;
  lines->push_back(tail.str());
  tail.str("");
  tail << "store commits=" << stats.commits << " aborts=" << stats.aborts
       << " lock_waits=" << stats.lock_waits
       << " exhausted=" << stats.retries_exhausted
       << " page_fetches=" << stats.page_fetches
       << " inflight=" << store.inflight();
  lines->push_back(tail.str());

  const BPlusTree& tree = store.tree();
  std::vector<std::pair<Key, Value>> all;
  tree.scan(0, tree.size() + 1, &all);
  std::uint64_t sum = 0xcbf29ce484222325ull;
  for (const auto& [k, v] : all) {
    sum = (sum ^ k) * 0x100000001b3ull;
    sum = (sum ^ v) * 0x100000001b3ull;
  }
  std::string why;
  tail.str("");
  tail << "tree size=" << tree.size() << " height=" << tree.height()
       << " nodes=" << tree.node_count() << " fnv=" << std::hex << sum
       << std::dec << " invariants="
       << (tree.check_invariants(&why) ? "ok" : why);
  lines->push_back(tail.str());
}

std::vector<std::string> golden_outcomes() {
  std::vector<std::string> lines;
  std::uint64_t seed = 11;
  for (const LockProtocol protocol :
       {LockProtocol::kNoWait, LockProtocol::kWaitDie}) {
    for (const std::size_t cache_nodes : {0, 16, 256}) {
      run_mix(protocol, cache_nodes, seed++, &lines);
    }
  }
  return lines;
}

TEST(TxnGolden, ReproducesRecordedOutcomes) {
  const std::vector<std::string> actual = golden_outcomes();
  std::ifstream in(LNIC_TXN_GOLDEN_PATH);
  std::vector<std::string> expected;
  for (std::string line; std::getline(in, line);) expected.push_back(line);

  std::size_t mismatches = 0;
  for (std::size_t i = 0; i < std::max(actual.size(), expected.size()); ++i) {
    const std::string got = i < actual.size() ? actual[i] : "<missing>";
    const std::string want = i < expected.size() ? expected[i] : "<missing>";
    if (got != want && ++mismatches <= 5) {
      ADD_FAILURE() << "line " << i + 1 << "\n  expected: " << want
                    << "\n  actual:   " << got;
    }
  }
  if (mismatches > 0) {
    std::ofstream dump("txn_outcomes.actual.txt");
    for (const auto& line : actual) dump << line << "\n";
    FAIL() << mismatches
           << " outcomes differ; actual lines in txn_outcomes.actual.txt";
  }
}

}  // namespace
}  // namespace lnic::kvstore
