// End-to-end tests of the disk spill tier: eviction demotes sealed
// objects to per-shard spill files instead of destroying them, and Get
// transparently restores them into shared memory — so working sets
// larger than the pool complete instead of failing with kOutOfMemory.
#include <gtest/gtest.h>
#include <unistd.h>

#include <string>
#include <thread>
#include <vector>

#include "cluster/cluster.h"
#include "common/crc32.h"
#include "plasma/async_client.h"
#include "plasma/client.h"
#include "plasma/store.h"
#include "test_cluster_util.h"

namespace mdos::plasma {
namespace {

using testutil::RandomPayload;

ObjectId Id(int i) { return ObjectId::FromName("tier" + std::to_string(i)); }

class SpillTierTest : public ::testing::Test {
 protected:
  void StartStore(uint64_t capacity, uint32_t shards, bool spill) {
    StoreOptions options;
    options.name = "spill-tier-test-" + std::to_string(::getpid());
    options.capacity = capacity;
    options.shards = shards;
    if (spill) {
      spill_dir_ = testutil::ScratchDir("spill-tier");
      options.spill_dir = spill_dir_;
    }
    auto store = Store::Create(options);
    ASSERT_TRUE(store.ok()) << store.status();
    store_ = std::move(store).value();
    ASSERT_TRUE(store_->Start().ok());
    auto client = PlasmaClient::Connect(store_->socket_path());
    ASSERT_TRUE(client.ok()) << client.status();
    client_ = std::move(client).value();
  }

  void TearDown() override {
    client_.reset();
    if (store_) store_->Stop();
  }

  std::string spill_dir_;
  std::unique_ptr<Store> store_;
  std::unique_ptr<PlasmaClient> client_;
};

// The acceptance scenario at test scale: a working set 4x the pool
// completes with the spill tier and every byte survives the round trip
// through disk.
TEST_F(SpillTierTest, WorkingSetLargerThanPoolCompletes) {
  StartStore(4 << 20, /*shards=*/1, /*spill=*/true);
  constexpr int kObjects = 16;            // 16 x 1 MiB = 4x the pool
  constexpr size_t kSize = 1 << 20;

  for (int i = 0; i < kObjects; ++i) {
    Status put = client_->CreateAndSeal(Id(i), RandomPayload(i, kSize));
    ASSERT_TRUE(put.ok()) << "object " << i << ": " << put;
  }
  auto stats = store_->stats();
  EXPECT_GT(stats.spilled_bytes, 0u);
  EXPECT_GT(stats.spilled_objects, 0u);
  EXPECT_EQ(stats.objects_total, static_cast<uint64_t>(kObjects))
      << "spilling must not lose objects";
  EXPECT_EQ(stats.evictions, 0u) << "everything spilled, nothing destroyed";

  // Read the whole set back — most Gets hit the disk tier.
  for (int i = 0; i < kObjects; ++i) {
    auto get = client_->Get(Id(i), /*timeout_ms=*/0);
    ASSERT_TRUE(get.ok()) << "object " << i << ": " << get.status();
    auto data = get->CopyData();
    ASSERT_TRUE(data.ok());
    EXPECT_EQ(Crc32(data->data(), data->size()),
              Crc32(RandomPayload(i, kSize)))
        << "object " << i << " corrupted by the spill round trip";
    ASSERT_TRUE(client_->Release(Id(i)).ok());
  }
  EXPECT_GT(store_->stats().spill_restores, 0u);
}

// Without a spill dir the same overcommit fails: the tier is what makes
// the difference (and the acceptance criterion's negative half).
TEST_F(SpillTierTest, SameWorkloadFailsWithoutSpillDir) {
  StartStore(4 << 20, /*shards=*/1, /*spill=*/false);
  constexpr size_t kSize = 1 << 20;
  // Pin each object so eviction cannot reclaim it — the pool must run
  // out. (Unpinned objects would be silently evicted, not failed.)
  int failures = 0;
  std::vector<int> pinned;
  for (int i = 0; i < 16; ++i) {
    Status put = client_->CreateAndSeal(Id(i), RandomPayload(i, kSize));
    if (!put.ok()) {
      EXPECT_EQ(put.code(), StatusCode::kOutOfMemory) << put;
      ++failures;
      continue;
    }
    auto get = client_->Get(Id(i), 0);
    ASSERT_TRUE(get.ok());
    pinned.push_back(i);
  }
  EXPECT_GT(failures, 0) << "a 4x working set must not fit a pinned pool";
  for (int i : pinned) (void)client_->Release(Id(i));
}

TEST_F(SpillTierTest, SpilledObjectIsTransparent) {
  StartStore(4 << 20, /*shards=*/1, /*spill=*/true);
  const std::string payload = RandomPayload(1, 1 << 20);
  ASSERT_TRUE(client_->CreateAndSeal(Id(1), payload).ok());
  // Push Id(1) out of the pool.
  for (int i = 2; i <= 5; ++i) {
    ASSERT_TRUE(
        client_->CreateAndSeal(Id(i), RandomPayload(i, 1 << 20)).ok());
  }
  ASSERT_GT(store_->stats().spilled_objects, 0u);

  // Contains answers yes while the object sits on disk...
  auto contains = client_->Contains(Id(1));
  ASSERT_TRUE(contains.ok());
  EXPECT_TRUE(*contains);
  // ...List reports it (flagged as spilled)...
  auto list = client_->List();
  ASSERT_TRUE(list.ok());
  bool found_spilled = false;
  for (const auto& info : *list) {
    if (info.id == Id(1)) {
      EXPECT_TRUE(info.sealed);
      found_spilled = info.spilled;
    }
  }
  EXPECT_TRUE(found_spilled);

  // ...and Get restores it with the payload intact.
  auto get = client_->Get(Id(1), 0);
  ASSERT_TRUE(get.ok()) << get.status();
  auto data = get->CopyData();
  ASSERT_TRUE(data.ok());
  EXPECT_EQ(std::string(data->begin(), data->end()), payload);
  ASSERT_TRUE(client_->Release(Id(1)).ok());

  auto stats = store_->stats();
  EXPECT_GE(stats.spill_restores, 1u);
}

TEST_F(SpillTierTest, DeleteDropsSpilledObject) {
  StartStore(4 << 20, /*shards=*/1, /*spill=*/true);
  ASSERT_TRUE(
      client_->CreateAndSeal(Id(1), RandomPayload(1, 1 << 20)).ok());
  for (int i = 2; i <= 5; ++i) {
    ASSERT_TRUE(
        client_->CreateAndSeal(Id(i), RandomPayload(i, 1 << 20)).ok());
  }
  ASSERT_GT(store_->stats().spilled_objects, 0u);

  ASSERT_TRUE(client_->Delete(Id(1)).ok());
  auto contains = client_->Contains(Id(1));
  ASSERT_TRUE(contains.ok());
  EXPECT_FALSE(*contains);
  auto get = client_->Get(Id(1), 0);
  EXPECT_FALSE(get.ok()) << "deleted spilled object must not come back";
  EXPECT_EQ(store_->stats().spilled_objects, 0u)
      << "delete must release the spill accounting";
}

// Regression: Abort on a spilled object must be rejected like any
// sealed object. (A force-remove here would free the entry's stale pool
// offset — memory that was already handed to another object at spill
// time.)
TEST_F(SpillTierTest, AbortOfSpilledObjectIsRejected) {
  StartStore(4 << 20, /*shards=*/1, /*spill=*/true);
  ASSERT_TRUE(
      client_->CreateAndSeal(Id(1), RandomPayload(1, 1 << 20)).ok());
  for (int i = 2; i <= 6; ++i) {
    ASSERT_TRUE(
        client_->CreateAndSeal(Id(i), RandomPayload(i, 1 << 20)).ok());
  }
  ASSERT_GT(store_->stats().spilled_objects, 0u);

  EXPECT_EQ(client_->Abort(Id(1)).code(), StatusCode::kSealed);
  // The object is still retrievable, and nobody else's memory was freed
  // under them: every resident object still round-trips.
  for (int i = 1; i <= 6; ++i) {
    auto get = client_->Get(Id(i), 0);
    ASSERT_TRUE(get.ok()) << "object " << i << ": " << get.status();
    auto crc = get->ChecksumData();
    ASSERT_TRUE(crc.ok());
    EXPECT_EQ(*crc, Crc32(RandomPayload(i, 1 << 20))) << "object " << i;
    ASSERT_TRUE(client_->Release(Id(i)).ok());
  }
}

TEST_F(SpillTierTest, LruOrderGovernsWhoSpills) {
  StartStore(4 << 20, /*shards=*/1, /*spill=*/true);
  ASSERT_TRUE(
      client_->CreateAndSeal(Id(1), RandomPayload(1, 1 << 20)).ok());
  ASSERT_TRUE(
      client_->CreateAndSeal(Id(2), RandomPayload(2, 1 << 20)).ok());
  // Touch Id(1): Id(2) becomes the LRU victim.
  {
    auto get = client_->Get(Id(1), 0);
    ASSERT_TRUE(get.ok());
    ASSERT_TRUE(client_->Release(Id(1)).ok());
  }
  // Three more MiB overflow the 4 MiB pool and force at least one spill.
  ASSERT_TRUE(
      client_->CreateAndSeal(Id(3), RandomPayload(3, 1 << 20)).ok());
  ASSERT_TRUE(
      client_->CreateAndSeal(Id(4), RandomPayload(4, 1 << 20)).ok());
  ASSERT_TRUE(
      client_->CreateAndSeal(Id(5), RandomPayload(5, 1 << 20)).ok());

  auto list = client_->List();
  ASSERT_TRUE(list.ok());
  for (const auto& info : *list) {
    if (info.id == Id(2)) {
      EXPECT_TRUE(info.spilled) << "LRU must spill";
    }
    if (info.id == Id(1) && info.spilled) {
      // Id(1) may legitimately spill later under further pressure, but
      // never before Id(2).
      ADD_FAILURE() << "recently used object spilled before the LRU one";
    }
  }
}

TEST_F(SpillTierTest, ShardStatsReportSpillCounters) {
  StartStore(8 << 20, /*shards=*/2, /*spill=*/true);
  constexpr int kObjects = 24;
  for (int i = 0; i < kObjects; ++i) {
    ASSERT_TRUE(
        client_->CreateAndSeal(Id(i), RandomPayload(i, 1 << 20)).ok());
  }
  for (int i = 0; i < kObjects; ++i) {
    auto get = client_->Get(Id(i), 0);
    ASSERT_TRUE(get.ok()) << get.status();
    ASSERT_TRUE(client_->Release(Id(i)).ok());
  }

  auto shards = client_->ShardStats();
  ASSERT_TRUE(shards.ok()) << shards.status();
  ASSERT_EQ(shards->size(), 2u);
  uint64_t spilled = 0, restores = 0;
  for (const auto& s : *shards) {
    spilled += s.spilled_objects;
    restores += s.spill_restores;
  }
  EXPECT_GT(spilled, 0u);
  EXPECT_GT(restores, 0u);
  // The protocol aggregate agrees with the store-side view.
  auto stats = client_->Stats();
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->spilled_objects, spilled);
  EXPECT_GE(stats->spill_restores, restores);
}

// The dist-layer surface: a peer store looking up a spilled object must
// see it as present — the lookup itself promotes it back into the pool
// so the returned offset is readable over the fabric.
TEST_F(SpillTierTest, PeerLookupRestoresSpilledObjects) {
  StartStore(4 << 20, /*shards=*/1, /*spill=*/true);
  ASSERT_TRUE(
      client_->CreateAndSeal(Id(1), RandomPayload(1, 1 << 20)).ok());
  for (int i = 2; i <= 6; ++i) {
    ASSERT_TRUE(
        client_->CreateAndSeal(Id(i), RandomPayload(i, 1 << 20)).ok());
  }
  const uint64_t spilled_before = store_->stats().spilled_objects;
  ASSERT_GT(spilled_before, 0u);

  auto locations = store_->LookupManyForPeer({Id(1)});
  ASSERT_EQ(locations.size(), 1u);
  ASSERT_TRUE(locations[0].has_value())
      << "spilled objects must look present to peers";
  EXPECT_EQ(locations[0]->data_size, 1u << 20);

  auto stats = store_->stats();
  EXPECT_GE(stats.spill_restores, 1u);
  // The peer may pin the restored object at the reported location.
  ASSERT_TRUE(store_->PinForPeer(Id(1), /*peer_node=*/7, *locations[0]).ok());
  EXPECT_EQ(store_->RemotePins(Id(1)), 1u);
  ASSERT_TRUE(store_->UnpinForPeer(Id(1), 7).ok());
}

// Spill/restore stress across 4 shards: concurrent pipelined clients
// cycle an overcommitted working set through the tier; every payload
// must survive every crossing.
TEST_F(SpillTierTest, StressAcrossFourShards) {
  // 4 MiB arena per shard vs ~12 MiB hashed to each shard. Objects are
  // 512 KiB so the worst case of one pinned restore per thread on the
  // same shard (2 MiB) always leaves room for the next restore.
  StartStore(16 << 20, /*shards=*/4, /*spill=*/true);
  constexpr int kThreads = 4;
  constexpr int kObjectsPerThread = 24;   // 48 MiB total vs 16 MiB pool
  constexpr size_t kSize = 512 << 10;

  std::vector<uint32_t> expected_crc(
      static_cast<size_t>(kThreads * kObjectsPerThread));
  std::vector<std::thread> workers;
  std::vector<Status> results(kThreads, Status::OK());
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([this, t, &expected_crc, &results] {
      auto client = AsyncClient::Connect(store_->socket_path());
      if (!client.ok()) {
        results[static_cast<size_t>(t)] = client.status();
        return;
      }
      for (int i = 0; i < kObjectsPerThread; ++i) {
        const int n = t * kObjectsPerThread + i;
        std::string payload =
            RandomPayload(static_cast<uint64_t>(n), kSize);
        expected_crc[static_cast<size_t>(n)] = Crc32(payload);
        auto buf = (*client)->CreateAsync(Id(n), payload.size()).Take();
        if (!buf.ok()) {
          results[static_cast<size_t>(t)] = buf.status();
          return;
        }
        Status written = buf->WriteDataFrom(payload);
        if (written.ok()) written = (*client)->SealAsync(Id(n)).Take();
        if (!written.ok()) {
          results[static_cast<size_t>(t)] = written;
          return;
        }
      }
    });
  }
  for (auto& w : workers) w.join();
  for (const Status& s : results) ASSERT_TRUE(s.ok()) << s;

  // Re-read everything from other threads (ids hash across all shards).
  workers.clear();
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([this, t, &expected_crc, &results] {
      auto client = AsyncClient::Connect(store_->socket_path());
      if (!client.ok()) {
        results[static_cast<size_t>(t)] = client.status();
        return;
      }
      // Thread t verifies thread (t+1)'s objects.
      const int owner = (t + 1) % kThreads;
      for (int i = 0; i < kObjectsPerThread; ++i) {
        const int n = owner * kObjectsPerThread + i;
        auto get = (*client)->GetAsync(Id(n), /*timeout_ms=*/5000).Take();
        if (!get.ok()) {
          results[static_cast<size_t>(t)] = get.status();
          return;
        }
        auto crc = get->ChecksumData();
        if (!crc.ok()) {
          results[static_cast<size_t>(t)] = crc.status();
          return;
        }
        if (*crc != expected_crc[static_cast<size_t>(n)]) {
          results[static_cast<size_t>(t)] = Status::Unknown(
              "payload corrupted through spill tier: object " +
              std::to_string(n));
          return;
        }
        (void)(*client)->ReleaseAsync(Id(n)).Take();
      }
    });
  }
  for (auto& w : workers) w.join();
  for (const Status& s : results) ASSERT_TRUE(s.ok()) << s;

  auto stats = store_->stats();
  EXPECT_GT(stats.spills, 0u);
  EXPECT_GT(stats.spill_restores, 0u);
  EXPECT_EQ(stats.objects_total, static_cast<uint64_t>(kThreads) *
                                     kObjectsPerThread);
}

// Stop() must remove the per-shard spill files (the tier is a cache
// extension, not persistence).
TEST_F(SpillTierTest, StopRemovesSpillFiles) {
  StartStore(4 << 20, /*shards=*/2, /*spill=*/true);
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(
        client_->CreateAndSeal(Id(i), RandomPayload(i, 1 << 20)).ok());
  }
  std::string name = store_->name();
  client_.reset();
  store_->Stop();
  for (uint32_t s = 0; s < 2; ++s) {
    std::string path =
        spill_dir_ + "/" + name + ".shard" + std::to_string(s) + ".spill";
    EXPECT_NE(::access(path.c_str(), F_OK), 0)
        << path << " must be gone after Stop";
  }
  store_.reset();
}

// Mapped data plane vs the spill tier: spilling an object frees its pool
// bytes (and bumps its generation) while a remote reader may still hold
// a mapped descriptor to the old offset. The racing read must detect the
// mismatch and fall back to a pinned Get — which transparently restores
// the object from disk — so the caller sees the ORIGINAL payload,
// CRC-exact, never a torn copy of whatever recycled the arena bytes.
TEST(SpillMappedRaceTest, MappedReadRacingSpillFallsBackToRestoredBytes) {
  tf::FabricConfig config;
  config.local = tf::LatencyParams{0, 0.0};
  config.remote = tf::LatencyParams{0, 0.0};
  cluster::NodeOptions options;
  options.pool_size = 2 << 20;  // two 1 MiB slots per home store
  options.mapped_remote_reads = true;
  options.spill_dir =
      "/tmp/mdos-mapped-spill-race-" + std::to_string(::getpid());
  auto cluster = cluster::Cluster::CreateTwoNode(options, config);
  ASSERT_TRUE(cluster.ok()) << cluster.status();

  auto producer = (*cluster)->node(0)->CreateClient("producer");
  auto consumer = (*cluster)->node(1)->CreateClient("consumer");
  ASSERT_TRUE(producer.ok() && consumer.ok());

  const ObjectId victim = ObjectId::FromName("mapped-spill-victim");
  const std::string payload = RandomPayload(99, 1 << 20);
  ASSERT_TRUE((*producer)->CreateAndSeal(victim, payload).ok());

  auto buffer = (*consumer)->Get(victim, /*timeout_ms=*/0);
  ASSERT_TRUE(buffer.ok()) << buffer.status();
  ASSERT_TRUE(buffer->is_mapped());

  // Fill the home pool: the second filler demotes the (unpinned) victim
  // to the spill file and recycles its arena bytes.
  for (int i = 0; i < 2; ++i) {
    ASSERT_TRUE((*producer)
                    ->CreateAndSeal(ObjectId::FromName("spill-filler-" +
                                                       std::to_string(i)),
                                    RandomPayload(100 + i, 1 << 20))
                    .ok());
  }
  auto home = (*cluster)->node(0)->store().stats();
  ASSERT_GT(home.spills, 0u) << "victim must have been spilled";

  // The read detects the stale generation and falls back: the home store
  // restores the victim from disk for the pinned lookup, and the caller
  // gets the exact original bytes.
  auto crc = buffer->ChecksumData();
  ASSERT_TRUE(crc.ok()) << crc.status();
  EXPECT_EQ(*crc, Crc32(payload)) << "fallback returned torn data";
  EXPECT_FALSE(buffer->is_mapped()) << "buffer must be pinned after fallback";

  auto stats = (*consumer)->Stats();
  ASSERT_TRUE(stats.ok());
  EXPECT_GE(stats->mapped_fallbacks, 1u);
  EXPECT_GE((*cluster)->node(0)->store().stats().spill_restores, 1u);
  ASSERT_TRUE((*consumer)->Release(victim).ok());
}

}  // namespace
}  // namespace mdos::plasma
