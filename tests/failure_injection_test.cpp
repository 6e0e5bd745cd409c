// Failure-injection tests: malformed frames, garbage payloads, abrupt
// disconnects, and dead peers. The store and RPC server must shed the
// offending connection and keep serving everyone else.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "cluster/cluster.h"
#include "common/clock.h"
#include "common/crc32.h"
#include "common/deadline.h"
#include "common/rng.h"
#include "dist/remote_registry.h"
#include "net/frame.h"
#include "net/socket.h"
#include "plasma/client.h"
#include "plasma/store.h"
#include "rpc/channel.h"
#include "rpc/server.h"
#include "test_cluster_util.h"

namespace mdos {
namespace {

TEST(RpcFailureTest, GarbageBytesDropConnectionOnly) {
  rpc::RpcServer server;
  server.RegisterHandler(
      "echo", [](const std::vector<uint8_t>& p)
                  -> Result<std::vector<uint8_t>> { return p; });
  ASSERT_TRUE(server.Start(0).ok());

  // Attacker connection: raw garbage (bad magic).
  auto attacker = net::TcpConnect("127.0.0.1", server.port());
  ASSERT_TRUE(attacker.ok());
  const char junk[] = "this is definitely not a frame header at all";
  ASSERT_TRUE(net::WriteAll(attacker->get(), junk, sizeof(junk)).ok());

  // Legitimate client keeps working.
  auto channel = rpc::RpcChannel::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(channel.ok());
  auto reply = (*channel)->Call("echo", {1, 2, 3});
  ASSERT_TRUE(reply.ok()) << reply.status();

  // The attacker's socket was closed by the server.
  char byte;
  Status read = net::ReadAll(attacker->get(), &byte, 1);
  EXPECT_FALSE(read.ok());
  server.Stop();
}

TEST(RpcFailureTest, ValidFrameGarbagePayloadDropped) {
  rpc::RpcServer server;
  server.RegisterHandler(
      "echo", [](const std::vector<uint8_t>& p)
                  -> Result<std::vector<uint8_t>> { return p; });
  ASSERT_TRUE(server.Start(0).ok());

  auto attacker = net::TcpConnect("127.0.0.1", server.port());
  ASSERT_TRUE(attacker.ok());
  // Correct framing, undecodable RpcRequest body.
  std::vector<uint8_t> junk_payload = {0xFF, 0xFF, 0xFF};
  ASSERT_TRUE(net::SendFrame(attacker->get(), rpc::kRequestFrame,
                             junk_payload)
                  .ok());
  char byte;
  EXPECT_FALSE(net::ReadAll(attacker->get(), &byte, 1).ok());

  auto channel = rpc::RpcChannel::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(channel.ok());
  EXPECT_TRUE((*channel)->Call("echo", {9}).ok());
  server.Stop();
}

TEST(RpcFailureTest, WrongFrameTypeDropped) {
  rpc::RpcServer server;
  ASSERT_TRUE(server.Start(0).ok());
  auto attacker = net::TcpConnect("127.0.0.1", server.port());
  ASSERT_TRUE(attacker.ok());
  ASSERT_TRUE(
      net::SendFrame(attacker->get(), 0xDEAD, {1, 2, 3}).ok());
  char byte;
  EXPECT_FALSE(net::ReadAll(attacker->get(), &byte, 1).ok());
  server.Stop();
}

class StoreFailureTest : public ::testing::Test {
 protected:
  void SetUp() override {
    plasma::StoreOptions options;
    options.name = "failure-store";
    options.capacity = 4 << 20;
    auto store = plasma::Store::Create(options);
    ASSERT_TRUE(store.ok());
    store_ = std::move(store).value();
    ASSERT_TRUE(store_->Start().ok());
  }
  void TearDown() override { store_->Stop(); }
  std::unique_ptr<plasma::Store> store_;
};

TEST_F(StoreFailureTest, GarbageOnClientSocketDoesNotKillStore) {
  auto attacker = net::UdsConnect(store_->socket_path());
  ASSERT_TRUE(attacker.ok());
  const char junk[] = "garbage garbage garbage garbage garbage";
  ASSERT_TRUE(net::WriteAll(attacker->get(), junk, sizeof(junk)).ok());

  auto client = plasma::PlasmaClient::Connect(store_->socket_path());
  ASSERT_TRUE(client.ok());
  EXPECT_TRUE(
      (*client)->CreateAndSeal(ObjectId::FromName("alive"), "yes").ok());
}

TEST_F(StoreFailureTest, UnknownMessageTypeDropsClient) {
  auto attacker = net::UdsConnect(store_->socket_path());
  ASSERT_TRUE(attacker.ok());
  ASSERT_TRUE(net::SendFrame(attacker->get(), 9999, {1}).ok());
  char byte;
  EXPECT_FALSE(net::ReadAll(attacker->get(), &byte, 1).ok());
}

TEST_F(StoreFailureTest, TruncatedCreateRequestDropsClient) {
  auto attacker = net::UdsConnect(store_->socket_path());
  ASSERT_TRUE(attacker.ok());
  // A CreateRequest payload that is too short to decode.
  std::vector<uint8_t> short_payload(5, 0xAB);
  ASSERT_TRUE(net::SendFrame(
                  attacker->get(),
                  static_cast<uint32_t>(
                      plasma::MessageType::kCreateRequest),
                  short_payload)
                  .ok());
  char byte;
  EXPECT_FALSE(net::ReadAll(attacker->get(), &byte, 1).ok());
}

TEST_F(StoreFailureTest, RapidConnectDisconnectCycles) {
  for (int i = 0; i < 30; ++i) {
    auto client = plasma::PlasmaClient::Connect(store_->socket_path());
    ASSERT_TRUE(client.ok()) << i;
    if (i % 3 == 0) {
      ASSERT_TRUE((*client)
                      ->Create(ObjectId::FromName("cycle" +
                                                  std::to_string(i)),
                               100)
                      .ok());
      // Disconnect with the object unsealed: the store must abort it.
    }
  }
  auto client = plasma::PlasmaClient::Connect(store_->socket_path());
  ASSERT_TRUE(client.ok());
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  auto list = (*client)->List();
  ASSERT_TRUE(list.ok());
  EXPECT_TRUE(list->empty()) << "orphaned unsealed objects leaked";
}

TEST_F(StoreFailureTest, MidWriteDisconnectFreesSpace) {
  auto stats_before = store_->stats();
  {
    auto client = plasma::PlasmaClient::Connect(store_->socket_path());
    ASSERT_TRUE(client.ok());
    auto buffer =
        (*client)->Create(ObjectId::FromName("partial"), 2 << 20);
    ASSERT_TRUE(buffer.ok());
    std::string half(1 << 20, 'h');
    ASSERT_TRUE(buffer->WriteData(0, half.data(), half.size()).ok());
    // Client dies mid-write.
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  auto stats_after = store_->stats();
  EXPECT_EQ(stats_after.bytes_in_use, stats_before.bytes_in_use);
}

TEST(DistFailureTest, PinAgainstDeadPeerIsHarmless) {
  dist::RemoteStoreRegistry registry(/*self_node=*/7);
  plasma::RemoteObjectLocation loc;
  loc.home_node = 99;  // no such peer
  Status pinned = registry.PinRemote(ObjectId::FromName("x"), loc).Take();
  EXPECT_EQ(pinned.code(), StatusCode::kUnavailable);
  registry.UnpinRemote(ObjectId::FromName("x"), loc).Wait();
  EXPECT_EQ(registry.usage().total_pins(), 0u);
}

TEST(DistFailureTest, AddPeerToClosedPortFails) {
  dist::RemoteStoreRegistry registry(/*self_node=*/7);
  EXPECT_FALSE(registry.AddPeer("127.0.0.1", 1).ok());
  EXPECT_EQ(registry.peer_count(), 0u);
}

// ---- deterministic chaos schedule ------------------------------------------
//
// A seeded interleaving driver over a 3-node replication_factor=2
// cluster: every step (create / get / delete / kill / restart /
// partition / slow-link / heal) is drawn from a SplitMix64 stream, so a
// failing run is reproduced exactly by re-running its seed. The network
// faults route through the cluster's seeded FaultInjector (same
// determinism). The seed is printed on entry in a rerun-ready form; the
// invariants are the PR's acceptance bars — a schedule full of kills
// and partitions loses ZERO sealed (undeleted) objects, every
// deadline-carrying operation returns (success or typed error) within
// its budget instead of hanging, and after the dust settles every
// object is back at full copy count.

class ChaosScheduleDriver {
 public:
  static constexpr size_t kNodes = 3;

  explicit ChaosScheduleDriver(uint64_t seed) : seed_(seed), rng_(seed) {}

  void Run(int steps) {
    fprintf(stderr,
            "[chaos] seed=%llu steps=%d (rerun a failure with "
            "MDOS_CHAOS_SEED=%llu)\n",
            static_cast<unsigned long long>(seed_), steps,
            static_cast<unsigned long long>(seed_));
    SCOPED_TRACE("chaos seed=" + std::to_string(seed_));
    ::testing::Test::RecordProperty("chaos_seed",
                                    std::to_string(seed_));

    cluster::NodeOptions options = testutil::FailoverNodeOptions();
    options.replication_factor = 2;
    // A pool small enough that the workload spills: eviction pressure
    // and the disk tier are part of the interleaving under test.
    options.pool_size = 2 << 20;
    options.spill_dir =
        testutil::ScratchDir("chaos-" + std::to_string(seed_));
    auto cluster =
        testutil::MakeCluster(kNodes, options, testutil::FastFabric());
    ASSERT_TRUE(cluster.ok()) << cluster.status();
    cluster_ = cluster->get();

    for (size_t i = 0; i < kNodes; ++i) {
      alive_[i] = true;
      epoch_[i] = 0;
      ASSERT_TRUE(ReconnectClient(i));
    }

    for (int step = 0; step < steps; ++step) {
      SCOPED_TRACE("chaos step=" + std::to_string(step));
      switch (rng_.NextBelow(13)) {
        case 0:
        case 1:
        case 2:
        case 3:
          StepCreate();
          break;
        case 4:
        case 5:
        case 6:
          StepGet();
          break;
        case 7:
          StepDelete();
          break;
        case 8:
          StepKill();
          break;
        case 9:
          StepRestart();
          break;
        case 10:
          StepNetworkFault();
          break;
        case 11:
          StepSlowLink();
          break;
        default:
          StepHealLinks();
          break;
      }
      if (::testing::Test::HasFatalFailure()) return;
    }

    Quiesce();
    VerifyNothingLost();
  }

 private:
  struct TrackedObject {
    ObjectId id;
    uint64_t payload_seed = 0;
    size_t size = 0;
    size_t creator = 0;
    uint64_t creator_epoch = 0;
    bool deleted = false;
  };

  bool ReconnectClient(size_t i) {
    auto client = cluster_->node(i)->CreateClient(
        "chaos-" + std::to_string(i));
    EXPECT_TRUE(client.ok()) << client.status();
    if (!client.ok()) return false;
    clients_[i] = std::move(client).value();
    return true;
  }

  size_t RandomAliveNode() {
    for (;;) {
      size_t i = rng_.NextBelow(kNodes);
      if (alive_[i]) return i;
    }
  }

  // Tracked, undeleted objects; nullptr when none exist yet.
  TrackedObject* RandomLiveObject() {
    std::vector<TrackedObject*> live;
    for (auto& object : objects_) {
      if (!object.deleted) live.push_back(&object);
    }
    if (live.empty()) return nullptr;
    return live[rng_.NextBelow(live.size())];
  }

  // Wall-clock bound for a deadline-carrying call: the budget, plus the
  // client shim's slack, plus generous scheduling headroom (sanitizer
  // builds run several times slower). A call exceeding this has hung —
  // exactly what the deadline layer exists to prevent.
  static constexpr int64_t kOpBudgetMs = 2000;
  static constexpr int64_t kHangMs = 20000;

  void StepCreate() {
    TrackedObject object;
    object.creator = RandomAliveNode();
    object.creator_epoch = epoch_[object.creator];
    // Name from a counter that advances on FAILED creates too: a
    // deadline-exceeded create may still have committed in the store
    // (the budget ran out after the seal applied), so reusing the name
    // would draw AlreadyExists forever.
    const uint64_t sequence = create_attempts_++;
    object.payload_seed = seed_ * 1000003 + sequence;
    object.size = (32 << 10) + rng_.NextBelow(64 << 10);
    object.id = ObjectId::FromName("chaos-" + std::to_string(seed_) +
                                   "-" + std::to_string(sequence));
    Stopwatch sw;
    Status put = clients_[object.creator]->CreateAndSeal(
        object.id,
        testutil::RandomPayload(object.payload_seed, object.size),
        /*metadata=*/{}, /*replicate=*/false,
        Deadline::AfterMs(kOpBudgetMs));
    EXPECT_LT(sw.ElapsedMillis(), kHangMs)
        << "create hung past its deadline";
    // Creates during a peer's death window or partition may transiently
    // fail (typed error); only a successful seal enters the zero-loss
    // contract.
    if (put.ok()) objects_.push_back(object);
  }

  void StepGet() {
    TrackedObject* object = RandomLiveObject();
    if (object == nullptr) return;
    size_t reader = RandomAliveNode();
    Stopwatch sw;
    auto buffer = clients_[reader]->Get(object->id, /*timeout_ms=*/300,
                                        Deadline::AfterMs(kOpBudgetMs));
    EXPECT_LT(sw.ElapsedMillis(), kHangMs) << "get hung past its deadline";
    // Transient failure mid-kill or mid-partition is legal (typed
    // error); serving WRONG bytes never is.
    if (!buffer.ok()) return;
    auto crc = buffer->ChecksumData();
    if (crc.ok()) {
      EXPECT_EQ(*crc, Crc32(testutil::RandomPayload(object->payload_seed,
                                                    object->size)))
          << "corrupt read of " << object->id.Hex();
    }
    (void)clients_[reader]->Release(object->id);
  }

  void StepDelete() {
    TrackedObject* object = RandomLiveObject();
    if (object == nullptr) return;
    // Delete goes through the creator's store (objects are deleted where
    // they are owned); skip if that incarnation is gone.
    if (!alive_[object->creator] ||
        epoch_[object->creator] != object->creator_epoch) {
      return;
    }
    // A reader's in-flight pin may legally refuse the delete; the object
    // simply stays tracked.
    if (clients_[object->creator]->Delete(object->id).ok()) {
      object->deleted = true;
    }
  }

  // Installs a random partition between two distinct nodes: full
  // two-way, or asymmetric (one direction only — the gray failure the
  // hedging layer exists for).
  void StepNetworkFault() {
    size_t a = rng_.NextBelow(kNodes);
    size_t b = (a + 1 + rng_.NextBelow(kNodes - 1)) % kNodes;
    if (rng_.NextBelow(2) == 0) {
      ASSERT_TRUE(cluster_->PartitionLink(a, b).ok());
    } else {
      ASSERT_TRUE(cluster_->PartitionOneWay(a, b).ok());
    }
    faults_installed_ = true;
  }

  // Degrades a link without cutting it: latency + jitter, the
  // slow-but-alive profile that must not stall deadline-carrying ops.
  void StepSlowLink() {
    size_t a = rng_.NextBelow(kNodes);
    size_t b = (a + 1 + rng_.NextBelow(kNodes - 1)) % kNodes;
    ASSERT_TRUE(cluster_
                    ->SlowLink(a, b, /*latency_ms=*/5 + rng_.NextBelow(20),
                               /*jitter_ms=*/rng_.NextBelow(10))
                    .ok());
    faults_installed_ = true;
  }

  void StepHealLinks() {
    cluster_->HealAllLinks();
    faults_installed_ = false;
  }

  void StepKill() {
    for (size_t i = 0; i < kNodes; ++i) {
      if (!alive_[i]) return;  // at most one corpse at a time
    }
    // Kills happen on a healthy network: a partitioned mesh can't
    // converge, and the zero-loss contract requires convergence (every
    // object at k=2) before a death. Partition-during-death coverage
    // comes from schedules where the fault lands after the kill step.
    if (faults_installed_) StepHealLinks();
    // Kill only from a converged state: with every sealed object at
    // k=2, one death can never make a copy count hit zero.
    if (!testutil::WaitUntil(
            [&] { return testutil::ReplicationConverged(*cluster_); },
            /*timeout_ms=*/10000)) {
      ADD_FAILURE() << "replication never converged before kill";
      return;
    }
    size_t victim = rng_.NextBelow(kNodes);
    clients_[victim].reset();
    ASSERT_TRUE(cluster_->KillNode(victim).ok());
    alive_[victim] = false;
    // Survivors must register the death (suspect -> dead) before the
    // schedule moves on: re-heal and lookup failover key off it.
    uint32_t victim_id = cluster_->node(victim)->id();
    EXPECT_TRUE(testutil::WaitUntil([&] {
      for (size_t i = 0; i < kNodes; ++i) {
        if (!alive_[i]) continue;
        if (cluster_->node(i)->registry().peer_state(victim_id) !=
            dist::PeerState::kDead) {
          return false;
        }
      }
      return true;
    })) << "survivors never marked node " << victim << " dead";
  }

  void StepRestart() {
    // Re-admission needs working heartbeats in both directions; a
    // partitioned mesh would turn the wait below into a guaranteed
    // timeout.
    if (faults_installed_) StepHealLinks();
    for (size_t i = 0; i < kNodes; ++i) {
      if (alive_[i]) continue;
      ASSERT_TRUE(cluster_->RestartNode(i).ok());
      alive_[i] = true;
      ++epoch_[i];
      ASSERT_TRUE(ReconnectClient(i));
      uint32_t revived_id = cluster_->node(i)->id();
      EXPECT_TRUE(testutil::WaitUntil([&] {
        for (size_t j = 0; j < kNodes; ++j) {
          if (j == i) continue;
          if (cluster_->node(j)->registry().peer_state(revived_id) !=
              dist::PeerState::kHealthy) {
            return false;
          }
        }
        return true;
      })) << "mesh never re-admitted node " << i;
      return;
    }
  }

  // Heal the network, bring every node back, and drain all re-heal work.
  void Quiesce() {
    StepHealLinks();
    StepRestart();
    ASSERT_TRUE(testutil::WaitUntil(
        [&] { return testutil::ReplicationConverged(*cluster_); },
        /*timeout_ms=*/15000))
        << "re-heal backlog never drained after the schedule";
  }

  // The invariant: every object that was sealed and never deleted is
  // readable with intact bytes, from any node.
  void VerifyNothingLost() {
    size_t checked = 0;
    for (const auto& object : objects_) {
      if (object.deleted) continue;
      ++checked;
      EXPECT_TRUE(testutil::WaitUntil([&] {
        auto buffer = clients_[0]->Get(object.id, /*timeout_ms=*/500);
        if (!buffer.ok()) return false;
        auto crc = buffer->ChecksumData();
        (void)clients_[0]->Release(object.id);
        return crc.ok() &&
               *crc == Crc32(testutil::RandomPayload(
                           object.payload_seed, object.size));
      }, /*timeout_ms=*/10000))
          << "sealed object " << object.id.Hex()
          << " lost (seed=" << seed_ << ")";
    }
    fprintf(stderr, "[chaos] seed=%llu verified %zu surviving objects\n",
            static_cast<unsigned long long>(seed_), checked);
  }

  const uint64_t seed_;
  SplitMix64 rng_;
  cluster::Cluster* cluster_ = nullptr;
  std::unique_ptr<plasma::PlasmaClient> clients_[kNodes];
  bool faults_installed_ = false;
  uint64_t create_attempts_ = 0;
  bool alive_[kNodes] = {};
  uint64_t epoch_[kNodes] = {};
  std::vector<TrackedObject> objects_;
};

TEST(ChaosScheduleTest, SeededKillRestartScheduleLosesNoSealedObjects) {
  // MDOS_CHAOS_SEED reruns the exact schedule from a failure's log line.
  if (const char* env = ::getenv("MDOS_CHAOS_SEED")) {
    ChaosScheduleDriver(std::strtoull(env, nullptr, 10)).Run(60);
    return;
  }
  for (uint64_t seed : {0xC0FFEEULL, 2026ULL}) {
    ChaosScheduleDriver(seed).Run(60);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

}  // namespace
}  // namespace mdos
