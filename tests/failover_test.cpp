// Peer failure handling tests: reconnecting RPC channels, the per-peer
// health state machine (healthy → suspect → dead), dead-peer cleanup
// (usage-tracker drops, remote-pin release), stale-location pins, and
// the cluster-level kill/restart round trip.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <future>
#include <memory>
#include <thread>

#include "cluster/cluster.h"
#include "common/clock.h"
#include "common/crc32.h"
#include "dist/messages.h"
#include "dist/remote_registry.h"
#include "dist/service.h"
#include "plasma/client.h"
#include "plasma/store.h"
#include "rpc/channel.h"
#include "rpc/server.h"
#include "test_cluster_util.h"
#include "tf/fabric.h"

namespace mdos {
namespace {

using testutil::FastFabric;
using testutil::RandomPayload;
using testutil::StartEphemeral;
using testutil::WaitUntil;

// ---- RpcChannel reconnect --------------------------------------------------

class ReconnectRpcTest : public ::testing::Test {
 protected:
  void SetUp() override {
    RegisterHandlers(server_);
    auto port = StartEphemeral(server_);
    ASSERT_TRUE(port.ok()) << port.status();
    port_ = *port;
  }
  void TearDown() override { server_.Stop(); }

  static void RegisterHandlers(rpc::RpcServer& server) {
    server.RegisterHandler(
        "echo", [](const std::vector<uint8_t>& p)
                    -> Result<std::vector<uint8_t>> { return p; });
    server.RegisterHandler(
        "slow", [](const std::vector<uint8_t>& p)
                    -> Result<std::vector<uint8_t>> {
          std::this_thread::sleep_for(std::chrono::milliseconds(300));
          return p;
        });
  }

  rpc::RpcServer server_;
  uint16_t port_ = 0;
};

TEST_F(ReconnectRpcTest, ChannelRedialsAfterServerRestart) {
  rpc::ChannelOptions options;
  options.redial_backoff_min_ms = 1;
  options.redial_backoff_max_ms = 20;
  auto channel = rpc::RpcChannel::Connect("127.0.0.1", port_, options);
  ASSERT_TRUE(channel.ok());
  ASSERT_TRUE((*channel)->Call("echo", {1}).ok());

  server_.Stop();
  // The in-flight connection is dead: the next call fails and marks the
  // channel disconnected.
  EXPECT_FALSE((*channel)->Call("echo", {2}).ok());
  EXPECT_FALSE((*channel)->connected());

  // Same port, new server incarnation — the channel must redial on its
  // own instead of returning NotConnected forever.
  rpc::RpcServer revived;
  RegisterHandlers(revived);
  ASSERT_TRUE(revived.Start(port_).ok());
  bool healed = WaitUntil([&] {
    return (*channel)->Call("echo", {3}).ok();
  });
  EXPECT_TRUE(healed);
  EXPECT_TRUE((*channel)->connected());
  EXPECT_GE((*channel)->stats().reconnects, 1u);
  revived.Stop();
}

TEST_F(ReconnectRpcTest, FailsFastInsideBackoffWindow) {
  rpc::ChannelOptions options;
  options.redial_backoff_min_ms = 500;
  options.redial_backoff_max_ms = 2000;
  auto channel = rpc::RpcChannel::Connect("127.0.0.1", port_, options);
  ASSERT_TRUE(channel.ok());
  server_.Stop();
  EXPECT_FALSE((*channel)->Call("echo", {}).ok());  // detects the loss
  EXPECT_FALSE((*channel)->Call("echo", {}).ok());  // failed redial
  // Inside the backoff window calls must fail in microseconds, not wait
  // on a connect or timeout.
  Stopwatch sw;
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE((*channel)->Call("echo", {}).ok());
  }
  EXPECT_LT(sw.ElapsedMillis(), 100.0);
  EXPECT_GE((*channel)->stats().fast_failures, 90u);
}

TEST_F(ReconnectRpcTest, ExplicitDisconnectNeverRedials) {
  auto channel = rpc::RpcChannel::Connect("127.0.0.1", port_);
  ASSERT_TRUE(channel.ok());
  (*channel)->Disconnect();
  auto reply = (*channel)->Call("echo", {});
  EXPECT_EQ(reply.status().code(), StatusCode::kNotConnected);
  EXPECT_EQ((*channel)->stats().reconnects, 0u);
}

TEST_F(ReconnectRpcTest, TimedCallDoesNotPoisonLaterUntimedCalls) {
  // Regression: a timed call used to leave SO_RCVTIMEO armed, making
  // every later *untimed* call on the channel time out spuriously.
  auto channel = rpc::RpcChannel::Connect("127.0.0.1", port_);
  ASSERT_TRUE(channel.ok());
  ASSERT_TRUE((*channel)->Call("echo", {1}, /*timeout_ms=*/100).ok());
  // 300 ms handler, no deadline: must succeed — with the stale 100 ms
  // receive timeout still armed it would fail with kTimeout.
  auto slow = (*channel)->Call("slow", {2});
  EXPECT_TRUE(slow.ok()) << slow.status();
}

// ---- registry health machine ----------------------------------------------

// Two fabric-backed stores wired manually so tests control meshing,
// registry options, and server lifecycle (restarts on a fixed port).
class FailoverDistTest : public ::testing::Test {
 protected:
  void Init(dist::RegistryOptions registry_options) {
    fabric_ = std::make_unique<tf::Fabric>(FastFabric());
    for (int i = 0; i < 2; ++i) {
      auto node_id = fabric_->AddNode("f" + std::to_string(i), 8 << 20);
      ASSERT_TRUE(node_id.ok());
      auto region = fabric_->ExportRegion(*node_id, 0, 8 << 20);
      ASSERT_TRUE(region.ok());
      plasma::StoreOptions options;
      options.name = "failover-store-" + std::to_string(i);
      auto store = plasma::Store::CreateOnFabric(options, fabric_.get(),
                                                 *node_id, *region);
      ASSERT_TRUE(store.ok()) << store.status();
      stores_[i] = std::move(store).value();

      registries_[i] = std::make_unique<dist::RemoteStoreRegistry>(
          *node_id, registry_options);
      stores_[i]->SetDistHooks(registries_[i].get());
      plasma::Store* raw_store = stores_[i].get();
      registries_[i]->SetPeerDeathHandler([raw_store](uint32_t dead) {
        (void)raw_store->ReleasePinsForPeer(dead);
      });

      services_[i] = std::make_unique<dist::StoreService>(stores_[i].get());
      services_[i]->RegisterWith(servers_[i]);
      ASSERT_TRUE(stores_[i]->Start().ok());
      auto port = StartEphemeral(servers_[i]);
      ASSERT_TRUE(port.ok()) << port.status();
      ports_[i] = *port;
    }
  }

  void TearDown() override {
    for (int i = 0; i < 2; ++i) {
      if (registries_[i]) registries_[i]->StopHealthMonitor();
      if (stores_[i]) stores_[i]->Stop();
      servers_[i].Stop();
    }
  }

  Result<std::unique_ptr<plasma::PlasmaClient>> Client(int i) {
    plasma::ClientOptions options;
    options.fabric = fabric_.get();
    return plasma::PlasmaClient::Connect(stores_[i]->socket_path(),
                                         options);
  }

  static dist::RegistryOptions FastFailureOptions() {
    dist::RegistryOptions options;
    options.rpc_timeout_ms = 1000;
    options.heartbeat_interval_ms = 0;  // tests drive health manually
    options.suspect_after_failures = 1;
    options.dead_after_failures = 2;
    options.redial_backoff_min_ms = 1;
    options.redial_backoff_max_ms = 20;
    return options;
  }

  std::unique_ptr<tf::Fabric> fabric_;
  std::unique_ptr<plasma::Store> stores_[2];
  std::unique_ptr<dist::RemoteStoreRegistry> registries_[2];
  std::unique_ptr<dist::StoreService> services_[2];
  rpc::RpcServer servers_[2];
  uint16_t ports_[2] = {0, 0};
};

TEST_F(FailoverDistTest, FailureStreakMarksPeerDeadAndSkipsIt) {
  Init(FastFailureOptions());
  ASSERT_TRUE(
      registries_[0]->AddPeer("127.0.0.1", servers_[1].port()).ok());
  servers_[1].Stop();

  ObjectId id = ObjectId::FromName("gone");
  // Two failed calls: healthy -> suspect -> dead.
  (void)registries_[0]->LookupRemote({id}).Take();
  (void)registries_[0]->LookupRemote({id}).Take();
  EXPECT_EQ(registries_[0]->peer_state(stores_[1]->node_id()),
            dist::PeerState::kDead);

  // Dead peers are skipped: no further lookup RPCs are issued and the
  // call returns immediately.
  uint64_t rpcs_before = registries_[0]->stats().lookup_rpcs;
  Stopwatch sw;
  auto locations = registries_[0]->LookupRemote({id}).Take();
  EXPECT_LT(sw.ElapsedMillis(), 50.0);
  EXPECT_FALSE(locations[0].has_value());
  EXPECT_EQ(registries_[0]->stats().lookup_rpcs, rpcs_before);
}

TEST_F(FailoverDistTest, DeadPeerReleasesItsPinsOnSurvivor) {
  Init(FastFailureOptions());
  // Mesh both directions: node 1's clients pin on node 0; node 0 watches
  // node 1's health.
  ASSERT_TRUE(
      registries_[0]->AddPeer("127.0.0.1", servers_[1].port()).ok());
  ASSERT_TRUE(
      registries_[1]->AddPeer("127.0.0.1", servers_[0].port()).ok());

  auto producer = Client(0);
  auto consumer = Client(1);
  ASSERT_TRUE(producer.ok() && consumer.ok());
  ObjectId id = ObjectId::FromName("pinned-by-doomed-peer");
  ASSERT_TRUE((*producer)->CreateAndSeal(id, "payload").ok());
  auto buffer = (*consumer)->Get(id, 1000);
  ASSERT_TRUE(buffer.ok());
  EXPECT_EQ(stores_[0]->RemotePins(id), 1u);
  // Remote pin blocks delete (eviction contract).
  EXPECT_FALSE((*producer)->Delete(id).ok());

  // Node 1 "crashes" (its RPC endpoint dies; it never unpins).
  servers_[1].Stop();
  (void)registries_[0]->IdKnownRemotely(ObjectId::FromName("p1")).Take();
  (void)registries_[0]->IdKnownRemotely(ObjectId::FromName("p2")).Take();
  EXPECT_EQ(registries_[0]->peer_state(stores_[1]->node_id()),
            dist::PeerState::kDead);

  // Death released the corpse's pins: the object is deletable again.
  EXPECT_EQ(stores_[0]->RemotePins(id), 0u);
  EXPECT_TRUE((*producer)->Delete(id).ok());
}

TEST_F(FailoverDistTest, StaleLocationFailsPinAndGetMisses) {
  Init(FastFailureOptions());
  // One-way mesh: node 0 resolves ids on node 1.
  ASSERT_TRUE(
      registries_[0]->AddPeer("127.0.0.1", servers_[1].port()).ok());

  auto producer = Client(1);
  auto consumer = Client(0);
  ASSERT_TRUE(producer.ok() && consumer.ok());
  ObjectId id = ObjectId::FromName("stale-entry");
  ASSERT_TRUE((*producer)->CreateAndSeal(id, "original").ok());

  auto first = (*consumer)->Get(id, 1000);
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE((*consumer)->Release(id).ok());

  // A location looked up before the home deletes the object goes stale:
  // its pin must fail rather than hand out a dangling offset.
  auto located = registries_[0]->LookupRemote({id}).Take();
  ASSERT_EQ(located.size(), 1u);
  ASSERT_TRUE(located[0].has_value());
  ASSERT_TRUE((*producer)->Delete(id).ok());
  const uint64_t stale_before = registries_[0]->stats().stale_pins_detected;
  EXPECT_FALSE(registries_[0]->PinRemote(id, *located[0]).Take().ok());
  EXPECT_GT(registries_[0]->stats().stale_pins_detected, stale_before);
  EXPECT_GE(registries_[0]->stats().stale_pins_detected, 1u);

  // A fresh Get looks the id up again and finds nothing.
  auto gone = (*consumer)->Get(id, /*timeout_ms=*/0);
  EXPECT_FALSE(gone.ok());

  // After the producer re-creates the object, the lookup path serves the
  // new bytes.
  ASSERT_TRUE((*producer)->CreateAndSeal(id, "recreated-data").ok());
  auto again = (*consumer)->Get(id, 1000);
  ASSERT_TRUE(again.ok()) << again.status();
  auto data = again->CopyData();
  ASSERT_TRUE(data.ok());
  EXPECT_EQ(std::string(data->begin(), data->end()), "recreated-data");
}

// A pin names the location its lookup returned. If the home deleted and
// re-created the id since, the pin must be refused rather than land on
// the new incarnation while the peer reads the old offset and sizes.
TEST_F(FailoverDistTest, PinOfARecreatedObjectIsRefused) {
  Init(FastFailureOptions());
  ASSERT_TRUE(
      registries_[0]->AddPeer("127.0.0.1", servers_[1].port()).ok());
  auto producer = Client(1);
  auto consumer = Client(0);
  ASSERT_TRUE(producer.ok() && consumer.ok());
  ObjectId id = ObjectId::FromName("recreated-before-pin");
  ASSERT_TRUE((*producer)->CreateAndSeal(id, "first incarnation").ok());

  auto located = registries_[0]->LookupRemote({id}).Take();
  ASSERT_EQ(located.size(), 1u);
  ASSERT_TRUE(located[0].has_value());
  ASSERT_TRUE((*producer)->Delete(id).ok());
  ASSERT_TRUE((*producer)->CreateAndSeal(id, "second, longer incarnation")
                  .ok());

  const uint64_t stale_before = registries_[0]->stats().stale_pins_detected;
  Status pinned = registries_[0]->PinRemote(id, *located[0]).Take();
  EXPECT_EQ(pinned.code(), StatusCode::kKeyError) << pinned;
  EXPECT_EQ(registries_[0]->stats().stale_pins_detected, stale_before + 1);
  EXPECT_EQ(stores_[1]->RemotePins(id), 0u);

  auto again = (*consumer)->Get(id, 1000);
  ASSERT_TRUE(again.ok()) << again.status();
  auto data = again->CopyData();
  ASSERT_TRUE(data.ok());
  EXPECT_EQ(std::string(data->begin(), data->end()),
            "second, longer incarnation");
  ASSERT_TRUE((*consumer)->Release(id).ok());
  EXPECT_EQ(stores_[1]->RemotePins(id), 0u);
}

// The same race inside a Get: the home re-creates the id between the
// Get's lookup and its pin. The refused pin sends the Get back to the
// lookup once, and the Get serves the new incarnation's bytes.
TEST_F(FailoverDistTest, GetRetriesTheLookupWhenItsPinFindsANewIncarnation) {
  Init(FastFailureOptions());
  auto producer = Client(1);
  auto consumer = Client(0);
  ASSERT_TRUE(producer.ok() && consumer.ok());
  ObjectId id = ObjectId::FromName("recreated-during-get");
  ASSERT_TRUE((*producer)->CreateAndSeal(id, "old").ok());

  // Node 1's pin handler re-creates the object, bigger, before the first
  // pin it serves.
  bool recreated = false;
  servers_[1].Stop();
  servers_[1].RegisterHandler(
      dist::kMethodPin,
      [&](const std::vector<uint8_t>& payload)
          -> Result<std::vector<uint8_t>> {
        wire::Reader r(payload.data(), payload.size());
        MDOS_ASSIGN_OR_RETURN(dist::PinRequest request,
                              wire::Decode<dist::PinRequest>(r));
        if (!recreated) {
          recreated = true;
          EXPECT_TRUE((*producer)->Delete(request.id).ok());
          EXPECT_TRUE(
              (*producer)->CreateAndSeal(request.id, "new and longer").ok());
        }
        dist::PinReply reply;
        reply.status = stores_[1]->PinForPeer(request.id, request.peer_node,
                                              request.location());
        wire::Writer w;
        wire::Encode(w, reply);
        return w.TakeBuffer();
      });
  ASSERT_TRUE(servers_[1].Start(ports_[1]).ok());
  ASSERT_TRUE(registries_[0]->AddPeer("127.0.0.1", ports_[1]).ok());

  const uint64_t lookups_before = registries_[0]->stats().lookup_rpcs;
  auto got = (*consumer)->Get(id, /*timeout_ms=*/0);
  ASSERT_TRUE(got.ok()) << got.status();
  auto data = got->CopyData();
  ASSERT_TRUE(data.ok());
  EXPECT_EQ(std::string(data->begin(), data->end()), "new and longer");
  EXPECT_EQ(registries_[0]->stats().stale_pins_detected, 1u);
  EXPECT_EQ(registries_[0]->stats().lookup_rpcs - lookups_before, 2u);
  EXPECT_EQ(stores_[1]->RemotePins(id), 1u);
  ASSERT_TRUE((*consumer)->Release(id).ok());
  EXPECT_EQ(stores_[1]->RemotePins(id), 0u);
}

TEST_F(FailoverDistTest, GetRetriesTheLookupOnceWhenItsPinFails) {
  Init(FastFailureOptions());
  auto producer = Client(1);
  auto consumer = Client(0);
  ASSERT_TRUE(producer.ok() && consumer.ok());
  ObjectId id = ObjectId::FromName("deleted-before-pin");
  ASSERT_TRUE((*producer)->CreateAndSeal(id, "doomed").ok());

  // Node 1 loses the object between a Get's lookup and its pin: its pin
  // handler deletes the object before pinning.
  servers_[1].Stop();
  servers_[1].RegisterHandler(
      dist::kMethodPin,
      [&](const std::vector<uint8_t>& payload)
          -> Result<std::vector<uint8_t>> {
        wire::Reader r(payload.data(), payload.size());
        MDOS_ASSIGN_OR_RETURN(dist::PinRequest request,
                              wire::Decode<dist::PinRequest>(r));
        EXPECT_TRUE((*producer)->Delete(request.id).ok());
        dist::PinReply reply;
        reply.status = stores_[1]->PinForPeer(request.id, request.peer_node,
                                              request.location());
        wire::Writer w;
        wire::Encode(w, reply);
        return w.TakeBuffer();
      });
  ASSERT_TRUE(servers_[1].Start(ports_[1]).ok());
  ASSERT_TRUE(registries_[0]->AddPeer("127.0.0.1", ports_[1]).ok());

  // The failed pin sends the Get back to the lookup once; the object is
  // gone, so the Get misses instead of serving the dangling offset.
  const uint64_t lookups_before = registries_[0]->stats().lookup_rpcs;
  auto gone = (*consumer)->Get(id, /*timeout_ms=*/0);
  EXPECT_FALSE(gone.ok());
  EXPECT_EQ(registries_[0]->stats().stale_pins_detected, 1u);
  EXPECT_EQ(registries_[0]->stats().lookup_rpcs - lookups_before, 2u);
  EXPECT_EQ(stores_[1]->RemotePins(id), 0u);
}

// A replication push keeps the origin's bytes in place until the target
// has pulled them: a Delete that lands mid-pull is refused as in use, the
// replica gets the sealed bytes, and the Delete succeeds once the seal
// has acked.
TEST_F(FailoverDistTest, DeleteDuringAReplicaPullIsRefusedAsInUse) {
  Init(FastFailureOptions());
  auto producer = Client(0);
  auto deleter = Client(0);
  ASSERT_TRUE(producer.ok() && deleter.ok());
  const ObjectId id = ObjectId::FromName("deleted-mid-pull");
  const std::string payload = RandomPayload(23, 64 << 10);

  // Node 1's replicate handler deletes the object at node 0 before it
  // pulls the bytes.
  Status mid_pull_delete;
  servers_[1].Stop();
  servers_[1].RegisterHandler(
      dist::kMethodReplicate,
      [&](const std::vector<uint8_t>& bytes)
          -> Result<std::vector<uint8_t>> {
        wire::Reader r(bytes.data(), bytes.size());
        MDOS_ASSIGN_OR_RETURN(dist::ReplicateRequest request,
                              wire::Decode<dist::ReplicateRequest>(r));
        mid_pull_delete = (*deleter)->Delete(request.id);
        dist::ReplicateReply reply;
        reply.status = stores_[1]->AcceptReplica(
            request.id, request.source(), request.crc, request.origin_node,
            request.desired_copies, request.copy_nodes);
        wire::Writer w;
        wire::Encode(w, reply);
        return w.TakeBuffer();
      });
  ASSERT_TRUE(servers_[1].Start(ports_[1]).ok());
  ASSERT_TRUE(registries_[0]->AddPeer("127.0.0.1", ports_[1]).ok());

  ASSERT_TRUE((*producer)
                  ->CreateAndSeal(id, payload, /*metadata=*/{},
                                  /*replicate=*/true)
                  .ok());
  EXPECT_EQ(mid_pull_delete.code(), StatusCode::kInvalid) << mid_pull_delete;
  EXPECT_NE(mid_pull_delete.message().find("in use"), std::string::npos)
      << mid_pull_delete;
  EXPECT_EQ(stores_[0]->stats().under_replicated, 0u);

  auto reader = Client(1);
  ASSERT_TRUE(reader.ok());
  auto replica = (*reader)->Get(id, /*timeout_ms=*/0);
  ASSERT_TRUE(replica.ok()) << replica.status();
  EXPECT_FALSE(replica->is_remote());
  auto crc = replica->ChecksumData();
  ASSERT_TRUE(crc.ok());
  EXPECT_EQ(*crc, Crc32(payload));
  ASSERT_TRUE((*reader)->Release(id).ok());

  ASSERT_TRUE((*deleter)->Delete(id).ok());
  EXPECT_FALSE(stores_[1]->ContainsId(id));
}

// Every field of a Plasma.Replicate request comes from a peer: a range
// past the end of the named region and a region the sender does not own
// are refused before anything is allocated.
TEST_F(FailoverDistTest, AcceptReplicaRefusesABadSource) {
  Init(FastFailureOptions());
  const plasma::StoreStats before = stores_[1]->stats();
  const ObjectId id = ObjectId::FromName("bad-source");
  auto accept = [&](const plasma::RemoteObjectLocation& source) {
    return stores_[1]->AcceptReplica(id, source, /*crc=*/0, source.home_node,
                                     /*desired_copies=*/2, {});
  };

  plasma::RemoteObjectLocation overrun;
  overrun.home_node = stores_[0]->node_id();
  overrun.home_region = stores_[0]->pool_region();
  overrun.offset = stores_[0]->capacity() - 100;
  overrun.data_size = 4096;
  EXPECT_FALSE(accept(overrun).ok());
  overrun.offset = UINT64_MAX - 10;  // offset + size wraps
  EXPECT_FALSE(accept(overrun).ok());

  plasma::RemoteObjectLocation foreign;
  foreign.home_node = stores_[0]->node_id();
  foreign.home_region = stores_[1]->pool_region();
  foreign.data_size = 64;
  EXPECT_FALSE(accept(foreign).ok());

  const plasma::StoreStats after = stores_[1]->stats();
  EXPECT_EQ(after.bytes_in_use, before.bytes_in_use);
  EXPECT_EQ(after.objects_total, before.objects_total);
  EXPECT_FALSE(stores_[1]->ContainsId(id));
}

// A push that times out drops the origin's ref while the target may not
// have pulled yet. When the origin then deletes the object and reuses
// its memory, the late pull reads another object's bytes: the CRC check
// refuses them instead of installing them under the old id.
TEST_F(FailoverDistTest, LatePullAfterAPushTimedOutIsRefused) {
  Init(FastFailureOptions());
  auto producer = Client(0);
  ASSERT_TRUE(producer.ok());
  const ObjectId first = ObjectId::FromName("push-timed-out");
  const ObjectId second = ObjectId::FromName("reuses-its-memory");

  // Node 1's replicate handler holds its first pull until the push has
  // timed out and node 0 has reused the memory. A re-heal sweep's push
  // queues behind it on the serve thread. Shared, so a handler still
  // running after an early test exit touches live state.
  struct LatePull {
    std::promise<void> reused;
    std::shared_future<void> reused_ready = reused.get_future().share();
    std::promise<Status> refused;
    std::atomic<int> pulls{0};
  };
  auto late = std::make_shared<LatePull>();
  servers_[1].Stop();
  servers_[1].RegisterHandler(
      dist::kMethodReplicate,
      [this, late](const std::vector<uint8_t>& bytes)
          -> Result<std::vector<uint8_t>> {
        wire::Reader r(bytes.data(), bytes.size());
        MDOS_ASSIGN_OR_RETURN(dist::ReplicateRequest request,
                              wire::Decode<dist::ReplicateRequest>(r));
        const bool first_pull = late->pulls.fetch_add(1) == 0;
        if (first_pull) late->reused_ready.wait_for(std::chrono::seconds(10));
        dist::ReplicateReply reply;
        reply.status = stores_[1]->AcceptReplica(
            request.id, request.source(), request.crc, request.origin_node,
            request.desired_copies, request.copy_nodes);
        if (first_pull) late->refused.set_value(reply.status);
        wire::Writer w;
        wire::Encode(w, reply);
        return w.TakeBuffer();
      });
  ASSERT_TRUE(servers_[1].Start(ports_[1]).ok());
  ASSERT_TRUE(registries_[0]->AddPeer("127.0.0.1", ports_[1]).ok());

  // The seal acks once the push times out, with no copy recorded.
  ASSERT_TRUE((*producer)
                  ->CreateAndSeal(first, RandomPayload(29, 64 << 10),
                                  /*metadata=*/{}, /*replicate=*/true)
                  .ok());
  EXPECT_EQ(stores_[0]->stats().under_replicated, 1u);
  const auto old_location = stores_[0]->LookupManyForPeer({first})[0];
  ASSERT_TRUE(old_location.has_value());
  // A re-heal sweep's push may hold a ref until its own timeout.
  ASSERT_TRUE(WaitUntil([&] { return (*producer)->Delete(first).ok(); }));
  ASSERT_TRUE(
      (*producer)->CreateAndSeal(second, RandomPayload(31, 64 << 10)).ok());
  const auto new_location = stores_[0]->LookupManyForPeer({second})[0];
  ASSERT_TRUE(new_location.has_value());
  ASSERT_EQ(new_location->offset, old_location->offset);
  late->reused.set_value();

  auto refused = late->refused.get_future();
  ASSERT_EQ(refused.wait_for(std::chrono::seconds(10)),
            std::future_status::ready);
  const Status status = refused.get();
  EXPECT_EQ(status.code(), StatusCode::kInvalid) << status;
  EXPECT_NE(status.message().find("CRC"), std::string::npos) << status;
  // Drain the queued sweep push, which meets the same bytes.
  servers_[1].Stop();
  EXPECT_FALSE(stores_[1]->ContainsId(first));
  EXPECT_EQ(stores_[1]->stats().objects_total, 0u);
  auto reader = Client(1);
  ASSERT_TRUE(reader.ok());
  EXPECT_FALSE((*reader)->Get(first, /*timeout_ms=*/0).ok());
}

// A push for an id the target already holds merges the copy sets before
// anything is allocated or pulled: a full target with nothing evictable
// still answers OK, and evicts nothing.
TEST_F(FailoverDistTest, DuplicateReplicaPushMergesWithoutEvicting) {
  Init(FastFailureOptions());
  ASSERT_TRUE(registries_[0]->AddPeer("127.0.0.1", ports_[1]).ok());
  auto producer = Client(0);
  auto holder = Client(1);
  ASSERT_TRUE(producer.ok() && holder.ok());
  const ObjectId id = ObjectId::FromName("pushed-twice");
  const std::string payload = RandomPayload(37, 256 << 10);
  ASSERT_TRUE((*producer)
                  ->CreateAndSeal(id, payload, /*metadata=*/{},
                                  /*replicate=*/true)
                  .ok());
  ASSERT_TRUE(stores_[1]->ContainsId(id));

  // Pin the replica, then fill node 1's pool with unsealed objects,
  // which are never evicted.
  auto replica = (*holder)->Get(id, /*timeout_ms=*/0);
  ASSERT_TRUE(replica.ok()) << replica.status();
  ASSERT_FALSE(replica->is_remote());
  int fillers = 0;
  for (uint64_t size = 1 << 20; size >= 4096; size /= 2) {
    for (;;) {
      auto filler =
          (*holder)->Create(testutil::NamedId("filler-", fillers++), size);
      if (filler.ok()) continue;
      ASSERT_EQ(filler.status().code(), StatusCode::kOutOfMemory)
          << filler.status();
      break;
    }
  }
  const plasma::StoreStats before = stores_[1]->stats();
  ASSERT_EQ(before.under_replicated, 0u);

  // A second healer re-pushes with a copy set that names one more node.
  const auto source = stores_[0]->LookupManyForPeer({id})[0];
  ASSERT_TRUE(source.has_value());
  const uint32_t origin = stores_[0]->node_id();
  const uint32_t self = stores_[1]->node_id();
  const uint32_t third = std::max(origin, self) + 1;
  Status again = stores_[1]->AcceptReplica(id, *source, Crc32(payload),
                                           origin, /*desired_copies=*/3,
                                           {origin, self, third});
  EXPECT_TRUE(again.ok()) << again;

  const plasma::StoreStats after = stores_[1]->stats();
  // Three believed holders meet the new desired count of 3.
  EXPECT_EQ(after.under_replicated, 0u);
  EXPECT_EQ(after.evictions, before.evictions);
  EXPECT_EQ(after.bytes_in_use, before.bytes_in_use);
  EXPECT_EQ(after.objects_total, before.objects_total);
  ASSERT_TRUE((*holder)->Release(id).ok());
}

TEST_F(FailoverDistTest, FailedUnpinReRecordsThePin) {
  Init(FastFailureOptions());
  ASSERT_TRUE(
      registries_[0]->AddPeer("127.0.0.1", servers_[1].port()).ok());

  auto producer = Client(1);
  auto consumer = Client(0);
  ASSERT_TRUE(producer.ok() && consumer.ok());
  ObjectId id = ObjectId::FromName("leaky-unpin");
  ASSERT_TRUE((*producer)->CreateAndSeal(id, "x").ok());
  auto buffer = (*consumer)->Get(id, 1000);
  ASSERT_TRUE(buffer.ok());
  EXPECT_EQ(registries_[0]->usage().total_pins(), 1u);

  // The unpin RPC cannot reach the (suspect, not yet dead) peer: the pin
  // must stay recorded so a later release can retry, instead of leaking
  // the remote pin with no record of it.
  servers_[1].Stop();
  ASSERT_TRUE((*consumer)->Release(id).ok());
  EXPECT_EQ(registries_[0]->usage().total_pins(), 1u);
  EXPECT_EQ(registries_[0]->peer_state(stores_[1]->node_id()),
            dist::PeerState::kSuspect);

  // Endpoint comes back: the retried release goes through and the pin on
  // the home store drains to zero.
  ASSERT_TRUE(servers_[1].Start(ports_[1]).ok());
  registries_[0]->ReleaseAllPins();
  EXPECT_EQ(registries_[0]->usage().total_pins(), 0u);
  EXPECT_TRUE(WaitUntil([&] { return stores_[1]->RemotePins(id) == 0; }));
}

TEST_F(FailoverDistTest, HeartbeatDetectsDeathAndRecovery) {
  auto options = FastFailureOptions();
  options.heartbeat_interval_ms = 20;
  options.ping_timeout_ms = 200;
  options.dead_after_failures = 3;
  Init(options);
  ASSERT_TRUE(
      registries_[0]->AddPeer("127.0.0.1", servers_[1].port()).ok());
  registries_[0]->StartHealthMonitor();
  uint32_t peer = stores_[1]->node_id();

  ASSERT_TRUE(WaitUntil(
      [&] { return registries_[0]->stats().heartbeats >= 2; }));
  EXPECT_EQ(registries_[0]->peer_state(peer), dist::PeerState::kHealthy);

  // Kill the endpoint: the heartbeat alone (no data traffic) must walk
  // the peer to dead.
  servers_[1].Stop();
  EXPECT_TRUE(WaitUntil([&] {
    return registries_[0]->peer_state(peer) == dist::PeerState::kDead;
  }));
  EXPECT_GE(registries_[0]->stats().peers_died, 1u);

  // Endpoint returns on the same port: the heartbeat keeps pinging dead
  // peers, the channel redials, and the peer is re-admitted.
  ASSERT_TRUE(servers_[1].Start(ports_[1]).ok());
  EXPECT_TRUE(WaitUntil([&] {
    return registries_[0]->peer_state(peer) == dist::PeerState::kHealthy;
  }));
  EXPECT_GE(registries_[0]->stats().peers_recovered, 1u);
  registries_[0]->StopHealthMonitor();
}

TEST_F(FailoverDistTest, PeerHealthFlowsIntoStoreAndClientStats) {
  Init(FastFailureOptions());
  ASSERT_TRUE(
      registries_[0]->AddPeer("127.0.0.1", servers_[1].port()).ok());

  auto client = Client(0);
  ASSERT_TRUE(client.ok());
  auto stats = (*client)->Stats();
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->peers_total, 1u);
  EXPECT_EQ(stats->peers_healthy, 1u);
  EXPECT_EQ(stats->peers_dead, 0u);

  auto peers = (*client)->PeerStats();
  ASSERT_TRUE(peers.ok());
  ASSERT_EQ(peers->size(), 1u);
  EXPECT_EQ((*peers)[0].node_id, stores_[1]->node_id());
  EXPECT_EQ((*peers)[0].state, 0u);  // healthy

  // Walk the peer to dead; both stats surfaces must follow.
  servers_[1].Stop();
  (void)registries_[0]->IdKnownRemotely(ObjectId::FromName("a")).Take();
  (void)registries_[0]->IdKnownRemotely(ObjectId::FromName("b")).Take();
  stats = (*client)->Stats();
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->peers_dead, 1u);
  EXPECT_GE(stats->peer_failed_rpcs, 2u);
  peers = (*client)->PeerStats();
  ASSERT_TRUE(peers.ok());
  EXPECT_EQ((*peers)[0].state, 2u);  // dead
}

// ---- cluster kill / restart -------------------------------------------------

cluster::NodeOptions FailoverNode() {
  return testutil::FailoverNodeOptions();
}

TEST(ClusterFailoverTest, KillReleasesPinsFailsFastAndRestartRemeshes) {
  auto cluster =
      cluster::Cluster::CreateTwoNode(FailoverNode(), FastFabric());
  ASSERT_TRUE(cluster.ok()) << cluster.status();
  cluster::Node* node0 = (*cluster)->node(0);
  cluster::Node* node1 = (*cluster)->node(1);
  uint32_t id1 = node1->id();

  auto producer = node0->CreateClient("producer");
  ASSERT_TRUE(producer.ok());
  ObjectId survivor_obj = ObjectId::FromName("survivor-obj");
  ObjectId pinned_obj = ObjectId::FromName("pinned-obj");
  ASSERT_TRUE((*producer)->CreateAndSeal(survivor_obj, "stays").ok());
  ASSERT_TRUE((*producer)->CreateAndSeal(pinned_obj, "pin-me").ok());

  // A client on node 1 reads node 0's object and holds the reference —
  // the pin on node 0 will outlive the client's node.
  {
    auto consumer = node1->CreateClient("doomed-consumer");
    ASSERT_TRUE(consumer.ok());
    auto buffer = (*consumer)->Get(pinned_obj, 2000);
    ASSERT_TRUE(buffer.ok());
    EXPECT_EQ(node0->store().RemotePins(pinned_obj), 1u);

    // Crash node 1 with the pin held: no unpin, no goodbye.
    ASSERT_TRUE((*cluster)->KillNode(1).ok());
  }

  // Node 0's heartbeat walks node 1 to dead and releases its pins.
  ASSERT_TRUE(WaitUntil([&] {
    return node0->registry().peer_state(id1) == dist::PeerState::kDead;
  }));
  EXPECT_TRUE(WaitUntil(
      [&] { return node0->store().RemotePins(pinned_obj) == 0; }));
  // Its pinned object is deletable (= evictable) again.
  EXPECT_TRUE((*producer)->Delete(pinned_obj).ok());

  // Gets for unknown ids fail fast: the dead peer is skipped, no
  // per-call rpc_timeout_ms (2 s) stall.
  Stopwatch sw;
  auto missing = (*producer)->Get(ObjectId::FromName("nowhere"),
                                  /*timeout_ms=*/0);
  EXPECT_FALSE(missing.ok());
  EXPECT_LT(sw.ElapsedMillis(), 1000.0);

  // Restart: same fabric identity, same RPC port. The cluster re-meshes
  // the restarted side; node 0 re-admits the peer through heartbeat +
  // channel redial, with no manual intervention on its side.
  ASSERT_TRUE((*cluster)->RestartNode(1).ok());
  ASSERT_TRUE(WaitUntil([&] {
    return node0->registry().peer_state(id1) ==
           dist::PeerState::kHealthy;
  }));

  // The revived node serves lookups again in both directions.
  auto consumer = node1->CreateClient("revived-consumer");
  ASSERT_TRUE(consumer.ok());
  auto buffer = (*consumer)->Get(survivor_obj, 2000);
  ASSERT_TRUE(buffer.ok()) << buffer.status();
  auto data = buffer->CopyData();
  ASSERT_TRUE(data.ok());
  EXPECT_EQ(std::string(data->begin(), data->end()), "stays");
  ASSERT_TRUE((*consumer)->Release(survivor_obj).ok());

  ObjectId fresh = ObjectId::FromName("post-restart-obj");
  ASSERT_TRUE((*consumer)->CreateAndSeal(fresh, "new-life").ok());
  auto from_survivor = (*producer)->Get(fresh, 2000);
  ASSERT_TRUE(from_survivor.ok()) << from_survivor.status();

  // The survivor's channel healed by redialing, not by re-configuration.
  auto health = node0->registry().PeerHealth();
  ASSERT_EQ(health.size(), 1u);
  EXPECT_GE(health[0].reconnects, 1u);

  // Mid-workload death counters made it to the stats surface.
  auto stats = node0->store().stats();
  EXPECT_GE(stats.peer_reconnects, 1u);
  EXPECT_GE(stats.peer_heartbeats, 1u);
}

TEST(ClusterFailoverTest, KillNodeUnderActiveTrafficKeepsSurvivorsSane) {
  auto cluster =
      cluster::Cluster::CreateTwoNode(FailoverNode(), FastFabric());
  ASSERT_TRUE(cluster.ok());
  cluster::Node* node0 = (*cluster)->node(0);

  auto producer = node0->CreateClient("producer");
  ASSERT_TRUE(producer.ok());
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE((*producer)
                    ->CreateAndSeal(
                        ObjectId::FromName("t" + std::to_string(i)),
                        "traffic-" + std::to_string(i))
                    .ok());
  }

  // Reader thread hammers node 0 while node 1 dies mid-workload.
  std::atomic<bool> stop{false};
  std::atomic<int> successes{0};
  std::thread reader([&] {
    auto client = node0->CreateClient("reader");
    if (!client.ok()) return;
    int i = 0;
    while (!stop.load()) {
      ObjectId id = ObjectId::FromName("t" + std::to_string(i % 8));
      auto buffer = (*client)->Get(id, 200);
      if (buffer.ok()) {
        ++successes;
        (void)(*client)->Release(id);
      }
      ++i;
    }
  });

  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  ASSERT_TRUE((*cluster)->KillNode(1).ok());
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  stop.store(true);
  reader.join();

  // Local traffic on the survivor never depended on the corpse.
  EXPECT_GT(successes.load(), 0);
  // And the survivor's store still answers.
  auto check = (*producer)->Get(ObjectId::FromName("t0"), 500);
  EXPECT_TRUE(check.ok());
}

TEST(ClusterFailoverTest, KillWithReplicationLosesNoSealedObjects) {
  // The PR 5 contract was "degrade gracefully": survivors stay sane but
  // the dead node's objects are gone. With replication_factor=2 the
  // contract hardens to "heal": a mid-workload kill loses ZERO sealed
  // objects and the copy count returns to k.
  cluster::NodeOptions options = testutil::FailoverNodeOptions();
  options.replication_factor = 2;
  auto cluster = testutil::MakeCluster(3, options, FastFabric());
  ASSERT_TRUE(cluster.ok()) << cluster.status();

  constexpr int kObjects = 12;
  constexpr size_t kSize = 32 << 10;
  auto producer = (*cluster)->node(0)->CreateClient("producer");
  ASSERT_TRUE(producer.ok());
  for (int i = 0; i < kObjects; ++i) {
    ASSERT_TRUE((*producer)
                    ->CreateAndSeal(
                        ObjectId::FromName("r" + std::to_string(i)),
                        RandomPayload(i, kSize))
                    .ok());
  }
  ASSERT_TRUE(WaitUntil([&] {
    return (*cluster)->node(0)->store().stats().under_replicated == 0;
  }));

  // Reader keeps hammering the full set from node 2 while a replica
  // holder dies mid-workload.
  std::atomic<bool> stop{false};
  std::atomic<int> successes{0};
  std::thread reader([&] {
    auto client = (*cluster)->node(2)->CreateClient("reader");
    if (!client.ok()) return;
    int i = 0;
    while (!stop.load()) {
      ObjectId id = ObjectId::FromName("r" + std::to_string(i % kObjects));
      auto buffer = (*client)->Get(id, 200);
      if (buffer.ok()) {
        ++successes;
        (void)(*client)->Release(id);
      }
      ++i;
    }
  });

  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  uint32_t victim_id = (*cluster)->node(1)->id();
  ASSERT_TRUE((*cluster)->KillNode(1).ok());
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  stop.store(true);
  reader.join();
  EXPECT_GT(successes.load(), 0);
  ASSERT_TRUE(WaitUntil([&] {
    return (*cluster)->node(0)->registry().peer_state(victim_id) ==
           dist::PeerState::kDead;
  }));

  // Zero lost sealed objects: whichever nodes held copies, every one of
  // the 12 is still readable (with intact bytes) after the kill...
  auto checker = (*cluster)->node(0)->CreateClient("checker");
  ASSERT_TRUE(checker.ok());
  for (int i = 0; i < kObjects; ++i) {
    ObjectId id = ObjectId::FromName("r" + std::to_string(i));
    ASSERT_TRUE(WaitUntil([&] {
      auto buffer = (*checker)->Get(id, 500);
      if (!buffer.ok()) return false;
      auto crc = buffer->ChecksumData();
      (void)(*checker)->Release(id);
      return crc.ok() && *crc == Crc32(RandomPayload(i, kSize));
    }, /*timeout_ms=*/10000))
        << "sealed object " << i << " lost after kill";
  }

  // ...and the re-heal driver restores full redundancy.
  ASSERT_TRUE(WaitUntil([&] {
    return (*cluster)->node(0)->store().stats().reheal_copies >= 1;
  }, /*timeout_ms=*/10000));
  ASSERT_TRUE(WaitUntil([&] {
    return testutil::ReplicationConverged(**cluster);
  }, /*timeout_ms=*/10000));
}

}  // namespace
}  // namespace mdos
