// Integration tests for the public Cluster API: full request paths
// through gateway -> fabric -> backend -> cache across all three backend
// kinds, multi-worker balancing, etcd-mirrored routes, and fault
// tolerance end to end.
#include <gtest/gtest.h>

#include "core/cluster.h"
#include "workloads/image.h"
#include "workloads/lambdas.h"

namespace lnic::core {
namespace {

class ClusterBackendTest
    : public ::testing::TestWithParam<backends::BackendKind> {};

TEST_P(ClusterBackendTest, EndToEndWebRequest) {
  ClusterConfig config;
  config.backend = GetParam();
  config.workers = 2;
  Cluster cluster(config);
  auto bundle = workloads::make_standard_workloads();
  ASSERT_TRUE(cluster.deploy(workloads::make_standard_workloads()).ok());
  cluster.wait_until_ready();
  auto r = cluster.invoke_and_wait("web_server",
                                   workloads::encode_web_request(2));
  ASSERT_TRUE(r.ok()) << r.error().message;
  const auto& payload = r.value().payload;
  EXPECT_EQ(std::string(payload.begin() + 8, payload.end()),
            workloads::expected_web_page(bundle, 2));
}

INSTANTIATE_TEST_SUITE_P(Kinds, ClusterBackendTest,
                         ::testing::Values(backends::BackendKind::kLambdaNic,
                                           backends::BackendKind::kBareMetal,
                                           backends::BackendKind::kContainer));

TEST(Cluster, KvSetThenGetThroughGateway) {
  Cluster cluster;
  ASSERT_TRUE(cluster.deploy(workloads::make_standard_workloads()).ok());
  cluster.wait_until_ready();
  auto set = cluster.invoke_and_wait("kv_client_set",
                                     workloads::encode_kv_request(10, 1234));
  ASSERT_TRUE(set.ok());
  auto get = cluster.invoke_and_wait("kv_client_get",
                                     workloads::encode_kv_request(10));
  ASSERT_TRUE(get.ok());
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<std::uint64_t>(get.value().payload[i]) << (8 * i);
  }
  EXPECT_EQ(v, 1234u);
}

TEST(Cluster, ImagePipelineEndToEnd) {
  Cluster cluster;
  ASSERT_TRUE(cluster.deploy(workloads::make_standard_workloads()).ok());
  cluster.wait_until_ready();
  const auto img = workloads::make_test_image(96, 96, 6);
  auto r = cluster.invoke_and_wait(
      "image_transformer",
      workloads::encode_image_request(img.width, img.height, img.rgba));
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().payload, workloads::to_grayscale(img));
}

TEST(Cluster, RoutesMirroredIntoEtcd) {
  Cluster cluster;
  ASSERT_TRUE(cluster.deploy(workloads::make_standard_workloads()).ok());
  cluster.wait_until_ready();
  ASSERT_NE(cluster.etcd(), nullptr);
  const auto route = cluster.etcd()->get("route/web_server");
  ASSERT_TRUE(route.has_value());
  auto decoded = framework::Gateway::decode_route(*route);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded.value().workload, workloads::kWebServerId);
  EXPECT_EQ(decoded.value().workers().size(), cluster.worker_count());
}

TEST(Cluster, BalancesAcrossWorkers) {
  ClusterConfig config;
  config.workers = 4;
  Cluster cluster(config);
  ASSERT_TRUE(cluster.deploy(workloads::make_standard_workloads()).ok());
  cluster.wait_until_ready();
  int done = 0;
  for (int i = 0; i < 40; ++i) {
    cluster.invoke("web_server", workloads::encode_web_request(0),
                   [&](Result<proto::RpcResponse> r) {
                     ASSERT_TRUE(r.ok());
                     ++done;
                   });
  }
  // Raft heartbeats keep the event queue non-empty; step until served.
  while (done < 40 && cluster.sim().step()) {
  }
  EXPECT_EQ(done, 40);
  for (std::size_t i = 0; i < cluster.worker_count(); ++i) {
    EXPECT_EQ(cluster.worker(i).completed(), 10u) << "worker " << i;
  }
}

TEST(Cluster, SurvivesPacketLossViaRetransmission) {
  ClusterConfig config;
  config.faults.drop_probability = 0.05;
  config.gateway.rpc.retransmit_timeout = milliseconds(20);
  config.gateway.rpc.max_retries = 50;
  Cluster cluster(config);
  ASSERT_TRUE(cluster.deploy(workloads::make_standard_workloads()).ok());
  cluster.wait_until_ready();
  int done = 0;
  for (int i = 0; i < 50; ++i) {
    cluster.invoke("web_server", workloads::encode_web_request(i & 3),
                   [&](Result<proto::RpcResponse> r) {
                     ASSERT_TRUE(r.ok());
                     ++done;
                   });
  }
  while (done < 50 && cluster.sim().step()) {
  }
  EXPECT_EQ(done, 50);
}

TEST(Cluster, GatewayMetricsAccumulate) {
  Cluster cluster;
  ASSERT_TRUE(cluster.deploy(workloads::make_standard_workloads()).ok());
  cluster.wait_until_ready();
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(cluster
                    .invoke_and_wait("web_server",
                                     workloads::encode_web_request(0))
                    .ok());
  }
  EXPECT_EQ(cluster.gateway().latency("web_server").count(), 5u);
  // render() emits valid Prometheus exposition: label values quoted.
  const std::string rendered = cluster.gateway().metrics().render();
  EXPECT_NE(rendered.find("gateway_requests_total{fn=\"web_server\"} 5"),
            std::string::npos);
}

TEST(Cluster, DeploymentRecordMatchesTable4Inputs) {
  ClusterConfig config;
  config.backend = backends::BackendKind::kContainer;
  Cluster cluster(config);
  auto record = cluster.deploy(workloads::make_standard_workloads());
  ASSERT_TRUE(record.ok());
  EXPECT_NEAR(to_mib(record.value().artifact_bytes), 153.0, 1.0);
  EXPECT_NEAR(to_sec(record.value().startup_time), 31.7, 1.0);
}

}  // namespace
}  // namespace lnic::core
