// Peer work off the shard event loops: a client's remote lookup must not
// stall other clients homed on the same shard, the uniqueness probe asks
// every peer at once, every ack still waits for the peer work it stands
// for, and tearing a store or registry down with peer calls in flight
// completes those calls instead of hanging or touching freed state.
#include <gtest/gtest.h>

#include <chrono>
#include <string>
#include <thread>

#include "cluster/cluster.h"
#include "common/clock.h"
#include "dist/messages.h"
#include "dist/remote_registry.h"
#include "plasma/async_client.h"
#include "plasma/client.h"
#include "rpc/server.h"
#include "test_cluster_util.h"

namespace mdos {
namespace {

using testutil::MakeCluster;
using testutil::StartEphemeral;

// One shard per store (the default), no heartbeat: a slowed link would
// miss pings and demote the peer mid-test, and health is not under test.
cluster::NodeOptions QuietNode(uint32_t replication_factor = 1) {
  cluster::NodeOptions options;
  options.pool_size = 8 << 20;
  options.replication_factor = replication_factor;
  options.registry.heartbeat_interval_ms = 0;
  return options;
}

uint64_t ServerCalls(cluster::Cluster& cluster, size_t node) {
  return cluster.node(node)->rpc_server().stats().calls;
}

uint64_t SealedEverywhere(cluster::Cluster& cluster) {
  uint64_t sealed = 0;
  for (size_t i = 0; i < cluster.size(); ++i) {
    sealed += cluster.node(i)->store().stats().objects_sealed;
  }
  return sealed;
}

TEST(HeadOfLineTest, RemoteGetDoesNotStallALocalGetOnTheSameShard) {
  auto cluster = MakeCluster(2, QuietNode());
  ASSERT_TRUE(cluster.ok()) << cluster.status();
  const ObjectId remote_id = ObjectId::FromName("homed-on-peer");
  const ObjectId local_id = ObjectId::FromName("homed-here");
  auto producer = (*cluster)->node(1)->CreateClient("producer");
  auto local = (*cluster)->node(0)->CreateClient("local");
  ASSERT_TRUE(producer.ok() && local.ok());
  ASSERT_TRUE((*producer)->CreateAndSeal(remote_id, "remote-bytes").ok());
  ASSERT_TRUE((*local)->CreateAndSeal(local_id, "local-bytes").ok());

  ASSERT_TRUE((*cluster)->SlowLink(0, 1, /*latency_ms=*/300).ok());
  plasma::ClientOptions options;
  options.client_name = "remote-reader";
  options.fabric = &(*cluster)->fabric();
  auto reader = plasma::AsyncClient::Connect(
      (*cluster)->node(0)->store().socket_path(), options);
  ASSERT_TRUE(reader.ok()) << reader.status();
  // Connection A: its Get needs a lookup across the slow link.
  auto remote = (*reader)->GetAsync(remote_id, /*timeout_ms=*/0,
                                    /*pinned=*/false,
                                    Deadline::AfterMs(10'000));
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  ASSERT_FALSE(remote.Ready());

  // Connection B, same shard: a local hit answers at once.
  Stopwatch sw;
  auto buffer = (*local)->Get(local_id);
  EXPECT_LT(sw.ElapsedMillis(), 50.0);
  ASSERT_TRUE(buffer.ok()) << buffer.status();
  EXPECT_FALSE(buffer->is_remote());
  ASSERT_TRUE((*local)->Release(local_id).ok());

  auto remote_buffer = remote.Take();
  ASSERT_TRUE(remote_buffer.ok()) << remote_buffer.status();
  EXPECT_TRUE(remote_buffer->is_remote());
  EXPECT_TRUE((*reader)->ReleaseAsync(remote_id).Take().ok());
}

TEST(HeadOfLineTest, UniquenessProbeAsksEveryPeerAtOnce) {
  auto cluster = MakeCluster(3, QuietNode());
  ASSERT_TRUE(cluster.ok()) << cluster.status();
  auto client = (*cluster)->node(0)->CreateClient("creator");
  ASSERT_TRUE(client.ok());
  // One probe round trip over a slowed link is 2 x 100 ms; asking the
  // two peers one after the other would take twice that.
  ASSERT_TRUE((*cluster)->SlowLink(0, 1, /*latency_ms=*/100).ok());
  ASSERT_TRUE((*cluster)->SlowLink(0, 2, /*latency_ms=*/100).ok());

  const ObjectId id = ObjectId::FromName("probed-twice");
  Stopwatch sw;
  auto created = (*client)->Create(id, 64);
  const double elapsed_ms = sw.ElapsedMillis();
  ASSERT_TRUE(created.ok()) << created.status();
  EXPECT_GE(elapsed_ms, 190.0);
  EXPECT_LT(elapsed_ms, 300.0);
  ASSERT_TRUE((*client)->Seal(id).ok());
}

// The acks below are checked the moment they arrive, with no polling, and
// a 50 ms link makes any ack that ran ahead of its peer work visible.

TEST(AckOrderTest, ReplicatedSealAcksOnceTheReplicaIsSealed) {
  auto cluster = MakeCluster(2, QuietNode(/*replication_factor=*/2));
  ASSERT_TRUE(cluster.ok()) << cluster.status();
  ASSERT_TRUE((*cluster)->SlowLink(0, 1, /*latency_ms=*/50).ok());
  auto client = (*cluster)->node(0)->CreateClient("producer");
  ASSERT_TRUE(client.ok());

  const uint64_t before = SealedEverywhere(**cluster);
  ASSERT_TRUE(
      (*client)->CreateAndSeal(ObjectId::FromName("k2"), "two copies").ok());
  EXPECT_EQ(SealedEverywhere(**cluster) - before, 2u);
}

// The replica's bytes cross the fabric, not the RPC link: the seal's
// Plasma.Replicate request carries only their location, and the target
// pulls the object with one fabric read.
TEST(AckOrderTest, ReplicatedSealMovesTheBytesByFabricPull) {
  auto cluster = MakeCluster(2, QuietNode(/*replication_factor=*/2));
  ASSERT_TRUE(cluster.ok()) << cluster.status();
  auto client = (*cluster)->node(0)->CreateClient("producer");
  ASSERT_TRUE(client.ok());
  const ObjectId id = ObjectId::FromName("pulled-not-pushed");
  const std::string payload = testutil::RandomPayload(19, 256 << 10);
  // The Create (and its uniqueness probe) stays outside the window.
  auto buffer = (*client)->Create(id, payload.size());
  ASSERT_TRUE(buffer.ok()) << buffer.status();
  ASSERT_TRUE(buffer->WriteDataFrom(payload).ok());

  const uint64_t bytes_in_before =
      (*cluster)->node(1)->rpc_server().stats().bytes_in;
  const uint64_t read_before = (*cluster)->fabric().stats().remote.read_bytes;
  ASSERT_TRUE((*client)->Seal(id).ok());
  EXPECT_LT((*cluster)->node(1)->rpc_server().stats().bytes_in -
                bytes_in_before,
            256u);
  EXPECT_EQ((*cluster)->fabric().stats().remote.read_bytes - read_before,
            payload.size());
  EXPECT_TRUE((*cluster)->node(1)->store().ContainsId(id));
}

TEST(AckOrderTest, OriginDeleteAcksOnceTheReplicaIsGone) {
  auto cluster = MakeCluster(2, QuietNode(/*replication_factor=*/2));
  ASSERT_TRUE(cluster.ok()) << cluster.status();
  auto client = (*cluster)->node(0)->CreateClient("producer");
  ASSERT_TRUE(client.ok());
  const ObjectId id = ObjectId::FromName("dropped-everywhere");
  ASSERT_TRUE((*client)->CreateAndSeal(id, "short-lived").ok());
  ASSERT_TRUE((*cluster)->node(1)->store().ContainsId(id));

  ASSERT_TRUE((*cluster)->SlowLink(0, 1, /*latency_ms=*/50).ok());
  const uint64_t calls_before = ServerCalls(**cluster, 1);
  ASSERT_TRUE((*client)->Delete(id).ok());
  EXPECT_FALSE((*cluster)->node(1)->store().ContainsId(id));
  // The replica drop is the Delete's only peer RPC.
  EXPECT_EQ(ServerCalls(**cluster, 1) - calls_before, 1u);
}

TEST(AckOrderTest, DeleteOfAnUnreplicatedObjectSendsNoPeerRpc) {
  auto cluster = MakeCluster(3, QuietNode());
  ASSERT_TRUE(cluster.ok()) << cluster.status();
  auto client = (*cluster)->node(0)->CreateClient("producer");
  ASSERT_TRUE(client.ok());
  const ObjectId id = ObjectId::FromName("one-copy");
  ASSERT_TRUE((*client)->CreateAndSeal(id, "k=1").ok());

  uint64_t calls_before[3];
  for (size_t i = 0; i < 3; ++i) calls_before[i] = ServerCalls(**cluster, i);
  ASSERT_TRUE((*client)->Delete(id).ok());
  for (size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(ServerCalls(**cluster, i), calls_before[i]) << "node " << i;
  }
}

TEST(AckOrderTest, ReleaseOfAPinnedRemoteRefAcksOnceTheHomeUnpinned) {
  auto cluster = MakeCluster(2, QuietNode());
  ASSERT_TRUE(cluster.ok()) << cluster.status();
  auto producer = (*cluster)->node(1)->CreateClient("producer");
  auto consumer = (*cluster)->node(0)->CreateClient("consumer");
  ASSERT_TRUE(producer.ok() && consumer.ok());
  const ObjectId id = ObjectId::FromName("pinned-at-home");
  ASSERT_TRUE((*producer)->CreateAndSeal(id, "pin me").ok());

  ASSERT_TRUE((*cluster)->SlowLink(0, 1, /*latency_ms=*/50).ok());
  auto buffer = (*consumer)->Get(id);
  ASSERT_TRUE(buffer.ok()) << buffer.status();
  ASSERT_TRUE(buffer->is_remote());
  EXPECT_EQ((*cluster)->node(1)->store().RemotePins(id), 1u);
  ASSERT_TRUE((*consumer)->Release(id).ok());
  EXPECT_EQ((*cluster)->node(1)->store().RemotePins(id), 0u);
}

TEST(AsyncTeardownTest, StoppingAStoreWithPeerWorkInFlightIsClean) {
  auto cluster = MakeCluster(2, QuietNode());
  ASSERT_TRUE(cluster.ok()) << cluster.status();
  auto producer = (*cluster)->node(1)->CreateClient("producer");
  ASSERT_TRUE(producer.ok());
  const ObjectId id = ObjectId::FromName("looked-up-during-stop");
  ASSERT_TRUE((*producer)->CreateAndSeal(id, "late").ok());
  ASSERT_TRUE((*cluster)->SlowLink(0, 1, /*latency_ms=*/200).ok());

  plasma::ClientOptions options;
  options.fabric = &(*cluster)->fabric();
  auto reader = plasma::AsyncClient::Connect(
      (*cluster)->node(0)->store().socket_path(), options);
  ASSERT_TRUE(reader.ok()) << reader.status();
  auto remote = (*reader)->GetAsync(id, /*timeout_ms=*/0, /*pinned=*/false,
                                    Deadline::AfterMs(10'000));
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  ASSERT_FALSE(remote.Ready());

  // The lookup is on the wire when its store goes away: the client's
  // Get fails with the connection, and the lookup's late outcome is
  // dropped instead of resuming on the stopped store.
  (*cluster)->node(0)->Kill();
  ASSERT_TRUE(remote.WaitFor(5000));
  EXPECT_FALSE(remote.Take().ok());
  cluster->reset();
}

TEST(AsyncTeardownTest, DestroyingARegistryCompletesItsCallsInFlight) {
  rpc::RpcServer peer;
  peer.RegisterHandler(
      dist::kMethodHello,
      [](const std::vector<uint8_t>&) -> Result<std::vector<uint8_t>> {
        dist::HelloReply reply;
        reply.node_id = 2;
        wire::Writer w;
        wire::Encode(w, reply);
        return w.TakeBuffer();
      });
  peer.RegisterHandler(
      dist::kMethodLookup,
      [](const std::vector<uint8_t>&) -> Result<std::vector<uint8_t>> {
        std::this_thread::sleep_for(std::chrono::milliseconds(300));
        return Status::Unavailable("too late");
      });
  auto port = StartEphemeral(peer);
  ASSERT_TRUE(port.ok()) << port.status();

  dist::RegistryOptions options;
  options.heartbeat_interval_ms = 0;
  auto registry = std::make_unique<dist::RemoteStoreRegistry>(1, options);
  ASSERT_TRUE(registry->AddPeer("127.0.0.1", *port).ok());
  auto located = registry->LookupRemote({ObjectId::FromName("anywhere")});
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  ASSERT_FALSE(located.Ready());

  registry.reset();
  ASSERT_TRUE(located.Ready());
  auto locations = located.Take();
  ASSERT_EQ(locations.size(), 1u);
  EXPECT_FALSE(locations[0].has_value());
  peer.Stop();
}

}  // namespace
}  // namespace mdos
