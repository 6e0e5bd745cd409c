// End-to-end tests of the mapped data plane (zero-RPC remote reads):
// remote sealed Gets served as generation-stamped descriptors, payloads
// copied straight from the mapped fabric region, a seqlock-style
// generation re-check after every copy, and the pinned-RPC fallback
// ladder when the check fails. The eviction and spill races live next
// to their tiers (eviction_test.cpp, spill_tier_test.cpp); this file
// covers the happy path, the counters, the pinned bypass, deletion,
// home-store restart (epoch) invalidation, and the Release of mapped
// refs, before and after a fallback.
#include <gtest/gtest.h>

#include <filesystem>
#include <string>
#include <vector>

#include "cluster/cluster.h"
#include "common/crc32.h"
#include "plasma/client.h"
#include "test_cluster_util.h"

namespace mdos::cluster {
namespace {

using testutil::FastFabric;
using testutil::RandomPayload;

NodeOptions MappedNode() {
  NodeOptions options;
  options.pool_size = 8 << 20;
  options.mapped_remote_reads = true;
  return options;
}

TEST(MappedReadTest, RemoteGetServesValidatedDescriptor) {
  auto cluster = Cluster::CreateTwoNode(MappedNode(), FastFabric());
  ASSERT_TRUE(cluster.ok()) << cluster.status();
  auto producer = (*cluster)->node(0)->CreateClient("producer");
  auto consumer = (*cluster)->node(1)->CreateClient("consumer");
  ASSERT_TRUE(producer.ok() && consumer.ok());

  const ObjectId id = ObjectId::FromName("mapped-happy");
  const std::string payload = RandomPayload(1, 1 << 20);
  ASSERT_TRUE((*producer)->CreateAndSeal(id, payload).ok());

  auto buffer = (*consumer)->Get(id, /*timeout_ms=*/2000);
  ASSERT_TRUE(buffer.ok()) << buffer.status();
  EXPECT_TRUE(buffer->is_remote());
  EXPECT_TRUE(buffer->is_mapped());

  // Reads validate and repeat cleanly while the home copy is stable.
  for (int pass = 0; pass < 3; ++pass) {
    auto crc = buffer->ChecksumData();
    ASSERT_TRUE(crc.ok()) << crc.status();
    EXPECT_EQ(*crc, Crc32(payload));
  }
  char head[8];
  ASSERT_TRUE(buffer->ReadData(0, head, sizeof head).ok());
  EXPECT_EQ(std::string(head, sizeof head), payload.substr(0, sizeof head));
  EXPECT_TRUE(buffer->is_mapped()) << "no fallback should have fired";

  // Zero-RPC contract: the descriptor was resolved with a lookup but no
  // pin/unpin RPC ever crossed the LAN, and the consumer-side store
  // counted the mapped Get.
  auto registry = (*cluster)->node(1)->registry().stats();
  EXPECT_EQ(registry.pin_rpcs, 0u);
  auto stats = (*consumer)->Stats();
  ASSERT_TRUE(stats.ok());
  EXPECT_GE(stats->mapped_reads, 1u);
  EXPECT_GE(stats->mapped_bytes, payload.size());
  EXPECT_EQ(stats->mapped_fallbacks, 0u);
  ASSERT_TRUE((*consumer)->Release(id).ok());
}

TEST(MappedReadTest, GetPinnedBypassesMappedPlane) {
  auto cluster = Cluster::CreateTwoNode(MappedNode(), FastFabric());
  ASSERT_TRUE(cluster.ok()) << cluster.status();
  auto producer = (*cluster)->node(0)->CreateClient("producer");
  auto consumer = (*cluster)->node(1)->CreateClient("consumer");
  ASSERT_TRUE(producer.ok() && consumer.ok());

  const ObjectId id = ObjectId::FromName("mapped-pinned-bypass");
  const std::string payload = RandomPayload(2, 1 << 20);
  ASSERT_TRUE((*producer)->CreateAndSeal(id, payload).ok());

  auto buffer = (*consumer)->GetPinned(id, /*timeout_ms=*/2000);
  ASSERT_TRUE(buffer.ok()) << buffer.status();
  EXPECT_TRUE(buffer->is_remote());
  EXPECT_FALSE(buffer->is_mapped());
  auto crc = buffer->ChecksumData();
  ASSERT_TRUE(crc.ok());
  EXPECT_EQ(*crc, Crc32(payload));

  // The pinned rung pays the pin RPC the mapped plane avoids.
  EXPECT_GE((*cluster)->node(1)->registry().stats().pin_rpcs, 1u);
  auto stats = (*consumer)->Stats();
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->mapped_reads, 0u);
  ASSERT_TRUE((*consumer)->Release(id).ok());
}

// A mapped descriptor holds no pin, so the home store may delete the
// object outright. The next read must fail (KeyError through the
// fallback ladder), never return whatever recycled the bytes.
TEST(MappedReadTest, DeleteInvalidatesOutstandingDescriptor) {
  auto cluster = Cluster::CreateTwoNode(MappedNode(), FastFabric());
  ASSERT_TRUE(cluster.ok()) << cluster.status();
  auto producer = (*cluster)->node(0)->CreateClient("producer");
  auto consumer = (*cluster)->node(1)->CreateClient("consumer");
  ASSERT_TRUE(producer.ok() && consumer.ok());

  const ObjectId id = ObjectId::FromName("mapped-then-deleted");
  const std::string payload = RandomPayload(3, 1 << 20);
  ASSERT_TRUE((*producer)->CreateAndSeal(id, payload).ok());

  auto buffer = (*consumer)->Get(id, /*timeout_ms=*/2000);
  ASSERT_TRUE(buffer.ok()) << buffer.status();
  ASSERT_TRUE(buffer->is_mapped());

  // No remote pin blocks the delete — exactly the hazard the generation
  // protocol exists for.
  ASSERT_TRUE((*producer)->Delete(id).ok());

  std::vector<uint8_t> scratch(payload.size());
  Status read = buffer->ReadData(0, scratch.data(), scratch.size());
  EXPECT_FALSE(read.ok()) << "read of a deleted mapped object succeeded";

  auto stats = (*consumer)->Stats();
  ASSERT_TRUE(stats.ok());
  EXPECT_GE(stats->mapped_fallbacks, 1u);
  ASSERT_TRUE((*consumer)->Release(id).ok());
}

// A killed-and-restarted home store re-creates its generation table with
// a higher epoch in the same fabric region. Descriptors stamped by the
// previous incarnation must fail the epoch half of the validation even
// though their generation counters could collide with the fresh table's
// near-zero values.
TEST(MappedReadTest, RestartedHomeStoreFailsEpochCheck) {
  auto cluster = Cluster::CreateTwoNode(MappedNode(), FastFabric());
  ASSERT_TRUE(cluster.ok()) << cluster.status();
  auto producer = (*cluster)->node(0)->CreateClient("producer");
  auto consumer = (*cluster)->node(1)->CreateClient("consumer");
  ASSERT_TRUE(producer.ok() && consumer.ok());

  const ObjectId id = ObjectId::FromName("mapped-across-restart");
  const std::string payload = RandomPayload(4, 1 << 20);
  ASSERT_TRUE((*producer)->CreateAndSeal(id, payload).ok());

  auto buffer = (*consumer)->Get(id, /*timeout_ms=*/2000);
  ASSERT_TRUE(buffer.ok()) << buffer.status();
  ASSERT_TRUE(buffer->is_mapped());

  // Crash-restart the home node: the pool region (and the stale bytes in
  // it) survives on the fabric, but the store comes back empty and the
  // table is re-formatted with a bumped epoch.
  producer->reset();  // its socket dies with the store
  ASSERT_TRUE((*cluster)->KillNode(0).ok());
  ASSERT_TRUE((*cluster)->RestartNode(0).ok());

  auto crc = buffer->ChecksumData();
  EXPECT_FALSE(crc.ok())
      << "stale descriptor validated against the new incarnation";
  ASSERT_TRUE((*consumer)->Release(id).ok());
}

// A Get that names one id twice holds one reference on it, as the store
// records one mapped ref per distinct id: one Release succeeds, the
// next finds nothing held and fails.
TEST(MappedReadTest, DuplicateIdInOneGetYieldsOneRef) {
  auto cluster = Cluster::CreateTwoNode(MappedNode(), FastFabric());
  ASSERT_TRUE(cluster.ok()) << cluster.status();
  auto producer = (*cluster)->node(0)->CreateClient("producer");
  auto consumer = (*cluster)->node(1)->CreateClient("consumer");
  ASSERT_TRUE(producer.ok() && consumer.ok());

  const ObjectId id = ObjectId::FromName("mapped-twice");
  const std::string payload = RandomPayload(6, 8192);
  ASSERT_TRUE((*producer)->CreateAndSeal(id, payload).ok());
  auto buffers = (*consumer)->Get(std::vector<ObjectId>{id, id},
                                  /*timeout_ms=*/2000);
  ASSERT_TRUE(buffers.ok()) << buffers.status();
  ASSERT_EQ(buffers->size(), 2u);
  for (const plasma::ObjectBuffer& buffer : *buffers) {
    ASSERT_TRUE(buffer.is_mapped());
    auto crc = buffer.ChecksumData();
    ASSERT_TRUE(crc.ok()) << crc.status();
    EXPECT_EQ(*crc, Crc32(payload));
  }
  EXPECT_TRUE((*consumer)->Release(id).ok());
  EXPECT_EQ((*consumer)->Release(id).code(), StatusCode::kKeyError);
}

// After a fallback the buffer is pinned at its home, and the stale
// descriptor's ref is retired. The caller's one Release must therefore
// drop the pin the fallback took, not leak it. A Get that names the id
// twice hands out two buffers on one mapped ref: both fall back and pin,
// so the second refetch must drop its surplus pin itself.
TEST(MappedReadTest, ReleaseAfterFallbackDropsTheFallbackPin) {
  for (size_t copies : {1u, 2u}) {
    SCOPED_TRACE(std::to_string(copies) + " copies of the id in one Get");
    NodeOptions options = MappedNode();
    options.pool_size = 2 << 20;  // two 1 MiB slots per home store
    options.spill_dir = testutil::ScratchDir("mapped-release-fallback");
    auto cluster = Cluster::CreateTwoNode(options, FastFabric());
    ASSERT_TRUE(cluster.ok()) << cluster.status();
    auto producer = (*cluster)->node(0)->CreateClient("producer");
    auto consumer = (*cluster)->node(1)->CreateClient("consumer");
    ASSERT_TRUE(producer.ok() && consumer.ok());

    const ObjectId id = ObjectId::FromName("mapped-release-spilled");
    const std::string payload = RandomPayload(7, 1 << 20);
    ASSERT_TRUE((*producer)->CreateAndSeal(id, payload).ok());
    auto buffers = (*consumer)->Get(std::vector<ObjectId>(copies, id),
                                    /*timeout_ms=*/2000);
    ASSERT_TRUE(buffers.ok()) << buffers.status();
    ASSERT_EQ(buffers->size(), copies);

    // Two fillers push the unpinned object out to the home's spill file.
    for (int i = 0; i < 2; ++i) {
      ASSERT_TRUE((*producer)
                      ->CreateAndSeal(testutil::NamedId("release-filler-", i),
                                      RandomPayload(70 + i, 1 << 20))
                      .ok());
    }
    plasma::Store& home = (*cluster)->node(0)->store();
    ASSERT_GT(home.stats().spills, 0u);

    for (const plasma::ObjectBuffer& buffer : *buffers) {
      ASSERT_TRUE(buffer.is_mapped());
      auto crc = buffer.ChecksumData();
      ASSERT_TRUE(crc.ok()) << crc.status();
      EXPECT_EQ(*crc, Crc32(payload));
      ASSERT_FALSE(buffer.is_mapped()) << "the read should have fallen back";
    }
    EXPECT_EQ(home.RemotePins(id), 1u);

    EXPECT_TRUE((*consumer)->Release(id).ok());
    EXPECT_EQ(home.RemotePins(id), 0u);
    EXPECT_EQ((*consumer)->Release(id).code(), StatusCode::kKeyError);
    consumer->reset();
    producer->reset();
    cluster->reset();
    std::filesystem::remove_all(options.spill_dir);
  }
}

}  // namespace
}  // namespace mdos::cluster
