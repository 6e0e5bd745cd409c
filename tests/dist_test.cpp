// Tests for the store↔store distributed layer: the RPC service surface,
// the peer registry (DistHooks implementation), id uniqueness probes,
// remote pins and the usage tracker that books them. Uses two
// fabric-backed stores wired manually (the cluster layer is tested in
// cluster_test.cpp).
#include <gtest/gtest.h>

#include "dist/messages.h"
#include "dist/remote_registry.h"
#include "dist/service.h"
#include "dist/usage_tracker.h"
#include "plasma/client.h"
#include "plasma/store.h"
#include "rpc/server.h"
#include "tf/fabric.h"

namespace mdos::dist {
namespace {

tf::FabricConfig FastFabric() {
  tf::FabricConfig config;
  config.local = tf::LatencyParams{0, 0.0};
  config.remote = tf::LatencyParams{0, 0.0};
  return config;
}

// Two stores on one fabric, RPC servers up, registries NOT yet meshed so
// individual tests control the wiring.
class DistTest : public ::testing::Test {
 protected:
  void SetUp() override {
    fabric_ = std::make_unique<tf::Fabric>(FastFabric());
    for (int i = 0; i < 2; ++i) {
      auto node_id = fabric_->AddNode("n" + std::to_string(i), 8 << 20);
      ASSERT_TRUE(node_id.ok());
      auto region = fabric_->ExportRegion(*node_id, 0, 8 << 20);
      ASSERT_TRUE(region.ok());
      plasma::StoreOptions options;
      options.name = "dist-store-" + std::to_string(i);
      auto store = plasma::Store::CreateOnFabric(options, fabric_.get(),
                                                 *node_id, *region);
      ASSERT_TRUE(store.ok()) << store.status();
      stores_[i] = std::move(store).value();

      registries_[i] = std::make_unique<RemoteStoreRegistry>(*node_id);
      stores_[i]->SetDistHooks(registries_[i].get());

      services_[i] = std::make_unique<StoreService>(stores_[i].get());
      services_[i]->RegisterWith(servers_[i]);
      ASSERT_TRUE(stores_[i]->Start().ok());
      ASSERT_TRUE(servers_[i].Start(0).ok());
    }
  }

  void TearDown() override {
    for (int i = 0; i < 2; ++i) {
      if (stores_[i]) stores_[i]->Stop();
      servers_[i].Stop();
    }
  }

  void Mesh() {
    ASSERT_TRUE(
        registries_[0]->AddPeer("127.0.0.1", servers_[1].port()).ok());
    ASSERT_TRUE(
        registries_[1]->AddPeer("127.0.0.1", servers_[0].port()).ok());
  }

  Result<std::unique_ptr<plasma::PlasmaClient>> Client(int i) {
    plasma::ClientOptions options;
    options.fabric = fabric_.get();
    return plasma::PlasmaClient::Connect(stores_[i]->socket_path(),
                                         options);
  }

  std::unique_ptr<tf::Fabric> fabric_;
  std::unique_ptr<plasma::Store> stores_[2];
  std::unique_ptr<RemoteStoreRegistry> registries_[2];
  std::unique_ptr<StoreService> services_[2];
  rpc::RpcServer servers_[2];
};

TEST_F(DistTest, HelloHandshakeViaAddPeer) {
  Mesh();
  EXPECT_EQ(registries_[0]->peer_count(), 1u);
  auto nodes = registries_[0]->peer_nodes();
  ASSERT_EQ(nodes.size(), 1u);
  EXPECT_EQ(nodes[0], stores_[1]->node_id());
}

TEST_F(DistTest, SelfPeeringRejected) {
  auto status = registries_[0]->AddPeer("127.0.0.1", servers_[0].port());
  EXPECT_EQ(status.code(), StatusCode::kInvalid);
}

TEST_F(DistTest, LookupFindsSealedRemoteObject) {
  Mesh();
  auto producer = Client(1);
  ASSERT_TRUE(producer.ok());
  ObjectId id = ObjectId::FromName("remote-obj");
  ASSERT_TRUE((*producer)->CreateAndSeal(id, "remote-data").ok());

  auto locations = registries_[0]->LookupRemote({id}).Take();
  ASSERT_EQ(locations.size(), 1u);
  ASSERT_TRUE(locations[0].has_value());
  EXPECT_EQ(locations[0]->home_node, stores_[1]->node_id());
  EXPECT_EQ(locations[0]->data_size, 11u);
}

TEST_F(DistTest, LookupMissesUnsealedObject) {
  Mesh();
  auto producer = Client(1);
  ASSERT_TRUE(producer.ok());
  ObjectId id = ObjectId::FromName("unsealed-obj");
  ASSERT_TRUE((*producer)->Create(id, 100).ok());

  auto locations = registries_[0]->LookupRemote({id}).Take();
  ASSERT_EQ(locations.size(), 1u);
  EXPECT_FALSE(locations[0].has_value());
}

TEST_F(DistTest, LookupBatchesMixedResults) {
  Mesh();
  auto producer = Client(1);
  ASSERT_TRUE(producer.ok());
  ObjectId found1 = ObjectId::FromName("f1");
  ObjectId found2 = ObjectId::FromName("f2");
  ObjectId missing = ObjectId::FromName("m");
  ASSERT_TRUE((*producer)->CreateAndSeal(found1, "1").ok());
  ASSERT_TRUE((*producer)->CreateAndSeal(found2, "22").ok());

  auto locations = registries_[0]->LookupRemote({found1, missing, found2}).Take();
  ASSERT_EQ(locations.size(), 3u);
  EXPECT_TRUE(locations[0].has_value());
  EXPECT_FALSE(locations[1].has_value());
  EXPECT_TRUE(locations[2].has_value());
  EXPECT_EQ(locations[2]->data_size, 2u);
}

TEST_F(DistTest, IdKnownRemotelySeesUnsealedToo) {
  Mesh();
  auto producer = Client(1);
  ASSERT_TRUE(producer.ok());
  ObjectId id = ObjectId::FromName("probe-me");
  ASSERT_TRUE((*producer)->Create(id, 10).ok());
  // Uniqueness probe must catch in-flight (unsealed) creations.
  EXPECT_TRUE(registries_[0]->IdKnownRemotely(id).Take());
  EXPECT_FALSE(registries_[0]->IdKnownRemotely(ObjectId::FromName("no")).Take());
}

TEST_F(DistTest, CreateRejectsIdTakenOnPeer) {
  Mesh();
  auto producer = Client(1);
  auto consumer = Client(0);
  ASSERT_TRUE(producer.ok() && consumer.ok());
  ObjectId id = ObjectId::FromName("taken");
  ASSERT_TRUE((*producer)->CreateAndSeal(id, "orig").ok());
  auto result = (*consumer)->Create(id, 10);
  EXPECT_EQ(result.status().code(), StatusCode::kAlreadyExists);
}

TEST_F(DistTest, RemoteGetReadsThroughFabric) {
  Mesh();
  auto producer = Client(1);
  auto consumer = Client(0);
  ASSERT_TRUE(producer.ok() && consumer.ok());
  ObjectId id = ObjectId::FromName("fabric-read");
  std::string payload(50000, 'F');
  ASSERT_TRUE((*producer)->CreateAndSeal(id, payload).ok());

  auto buffer = (*consumer)->Get(id, /*timeout_ms=*/1000);
  ASSERT_TRUE(buffer.ok()) << buffer.status();
  EXPECT_TRUE(buffer->is_remote());
  auto data = buffer->CopyData();
  ASSERT_TRUE(data.ok());
  EXPECT_EQ(std::string(data->begin(), data->end()), payload);
  EXPECT_TRUE((*consumer)->Release(id).ok());
}

TEST_F(DistTest, RemotePinBlocksEvictionAtHome) {
  Mesh();
  auto producer = Client(1);
  auto consumer = Client(0);
  ASSERT_TRUE(producer.ok() && consumer.ok());
  ObjectId id = ObjectId::FromName("pin-remote");
  ASSERT_TRUE((*producer)->CreateAndSeal(id, "pinned-data").ok());

  auto buffer = (*consumer)->Get(id, 1000);
  ASSERT_TRUE(buffer.ok());
  EXPECT_EQ(stores_[1]->RemotePins(id), 1u);

  // The home store refuses to delete while remotely pinned.
  EXPECT_FALSE((*producer)->Delete(id).ok());

  ASSERT_TRUE((*consumer)->Release(id).ok());
  EXPECT_EQ(stores_[1]->RemotePins(id), 0u);
  EXPECT_TRUE((*producer)->Delete(id).ok());
}

TEST_F(DistTest, UnreachablePeerDegradesToNotFound) {
  Mesh();
  servers_[1].Stop();  // peer store 1's RPC endpoint dies
  auto locations =
      registries_[0]->LookupRemote({ObjectId::FromName("whatever")}).Take();
  ASSERT_EQ(locations.size(), 1u);
  EXPECT_FALSE(locations[0].has_value());
  EXPECT_GT(registries_[0]->stats().failed_rpcs, 0u);
}

TEST_F(DistTest, UsageTrackerBalancedAfterReleaseAll) {
  Mesh();
  auto producer = Client(1);
  auto consumer = Client(0);
  ASSERT_TRUE(producer.ok() && consumer.ok());
  for (int i = 0; i < 3; ++i) {
    ObjectId id = ObjectId::FromName("bulk" + std::to_string(i));
    ASSERT_TRUE((*producer)->CreateAndSeal(id, "x").ok());
    ASSERT_TRUE((*consumer)->Get(id, 1000).ok());
  }
  EXPECT_EQ(registries_[0]->usage().total_pins(), 3u);
  registries_[0]->ReleaseAllPins();
  EXPECT_EQ(registries_[0]->usage().total_pins(), 0u);
  for (int i = 0; i < 3; ++i) {
    ObjectId id = ObjectId::FromName("bulk" + std::to_string(i));
    EXPECT_EQ(stores_[1]->RemotePins(id), 0u);
  }
}

TEST_F(DistTest, PinForPeerRequiresSealedObject) {
  EXPECT_EQ(
      stores_[0]->PinForPeer(ObjectId::FromName("ghost"), 1, {}).code(),
      StatusCode::kKeyError);
}

TEST_F(DistTest, UnpinWithoutPinIsKeyError) {
  auto producer = Client(0);
  ASSERT_TRUE(producer.ok());
  ObjectId id = ObjectId::FromName("nopin");
  ASSERT_TRUE((*producer)->CreateAndSeal(id, "x").ok());
  EXPECT_EQ(stores_[0]->UnpinForPeer(id, 1).code(), StatusCode::kKeyError);
}

// ---- usage tracker ---------------------------------------------------------

plasma::RemoteObjectLocation Loc(uint32_t node, uint64_t offset) {
  plasma::RemoteObjectLocation loc;
  loc.home_node = node;
  loc.home_region = node * 10;
  loc.offset = offset;
  loc.data_size = 100;
  return loc;
}

TEST(UsageTrackerTest, PinUnpinBalance) {
  UsageTracker tracker;
  ObjectId id = ObjectId::FromName("a");
  tracker.RecordPin(id, Loc(1, 0));
  tracker.RecordPin(id, Loc(1, 0));
  EXPECT_EQ(tracker.total_pins(), 2u);
  EXPECT_TRUE(tracker.RecordUnpin(id));
  EXPECT_EQ(tracker.total_pins(), 1u);
  EXPECT_TRUE(tracker.RecordUnpin(id));
  EXPECT_EQ(tracker.total_pins(), 0u);
  // Unbalanced unpin detected.
  EXPECT_FALSE(tracker.RecordUnpin(id));
}

TEST(UsageTrackerTest, SnapshotListsOutstanding) {
  UsageTracker tracker;
  tracker.RecordPin(ObjectId::FromName("a"), Loc(1, 0));
  tracker.RecordPin(ObjectId::FromName("b"), Loc(2, 0));
  tracker.RecordPin(ObjectId::FromName("b"), Loc(2, 0));
  auto snapshot = tracker.Snapshot();
  ASSERT_EQ(snapshot.size(), 2u);
  uint32_t total = 0;
  for (const auto& o : snapshot) total += o.count;
  EXPECT_EQ(total, 3u);
}

TEST(UsageTrackerTest, DropPinsForNodeForgetsOnlyThatNode) {
  UsageTracker tracker;
  tracker.RecordPin(ObjectId::FromName("a"), Loc(1, 0));
  tracker.RecordPin(ObjectId::FromName("a"), Loc(1, 0));
  tracker.RecordPin(ObjectId::FromName("b"), Loc(2, 0));
  EXPECT_EQ(tracker.DropPinsForNode(1), 2u);
  EXPECT_EQ(tracker.total_pins(), 1u);
  // Dropped pins count as unpins so the cumulative books stay balanced.
  EXPECT_EQ(tracker.unpins_recorded(), 2u);
  EXPECT_FALSE(tracker.RecordUnpin(ObjectId::FromName("a")));
  EXPECT_TRUE(tracker.RecordUnpin(ObjectId::FromName("b")));
  EXPECT_EQ(tracker.DropPinsForNode(1), 0u);
}

TEST(UsageTrackerTest, CountersAreCumulative) {
  UsageTracker tracker;
  ObjectId id = ObjectId::FromName("a");
  tracker.RecordPin(id, Loc(1, 0));
  ASSERT_TRUE(tracker.RecordUnpin(id));
  tracker.RecordPin(id, Loc(1, 0));
  EXPECT_EQ(tracker.pins_recorded(), 2u);
  EXPECT_EQ(tracker.unpins_recorded(), 1u);
}

}  // namespace
}  // namespace mdos::dist
