// Tests for the ThymesisFlow fabric simulator: topology, attachment
// semantics, the latency model, and traffic counters.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <vector>

#include "common/clock.h"
#include "common/crc32.h"
#include "common/rng.h"
#include "net/fault_injector.h"
#include "tf/fabric.h"

namespace mdos::tf {
namespace {

FabricConfig FastConfig() {
  // No throttling: functional tests should not pay modelled latency.
  FabricConfig config;
  config.local = LatencyParams{0, 0.0};
  config.remote = LatencyParams{0, 0.0};
  return config;
}

TEST(LatencyModelTest, AccessNanosComposesBaseAndBandwidth) {
  LatencyParams params{1000, 1.0};  // 1 us + 1 GiB/s
  // 1 GiB at 1 GiB/s = 1 s.
  int64_t ns = params.AccessNanos(1ull << 30);
  EXPECT_NEAR(static_cast<double>(ns), 1e9 + 1000, 1e6);
}

TEST(LatencyModelTest, ZeroBandwidthMeansUnthrottled) {
  LatencyParams params{500, 0.0};
  EXPECT_EQ(params.AccessNanos(1 << 20), 500);
}

TEST(LatencyModelTest, DefaultsMatchPaperCalibration) {
  // Local ~6.5 GiB/s, remote ~5.75 GiB/s (paper Fig. 7 stabilised values);
  // remote base latency is in the microsecond range.
  LatencyParams local = LocalDramParams();
  LatencyParams remote = RemoteFabricParams();
  EXPECT_NEAR(local.bandwidth_gib_per_s, 6.5, 0.01);
  EXPECT_NEAR(remote.bandwidth_gib_per_s, 5.75, 0.01);
  EXPECT_GT(remote.base_latency_ns, local.base_latency_ns);
}

TEST(LatencyModelTest, EnforceModelFloorsElapsedTime) {
  LatencyParams params{0, 1.0};  // 1 GiB/s
  const uint64_t bytes = 16 << 20;  // 16 MiB at 1 GiB/s ~= 15.6 ms
  int64_t start = MonotonicNanos();
  EnforceModel(params, bytes, start);
  int64_t elapsed = MonotonicNanos() - start;
  EXPECT_GE(elapsed, params.AccessNanos(bytes));
}

TEST(FabricTest, AddNodeAndLookup) {
  Fabric fabric(FastConfig());
  auto n0 = fabric.AddNode("n0", 1 << 20);
  auto n1 = fabric.AddNode("n1", 1 << 20);
  ASSERT_TRUE(n0.ok());
  ASSERT_TRUE(n1.ok());
  EXPECT_NE(*n0, *n1);
  EXPECT_EQ(fabric.node_count(), 2u);
  auto node = fabric.node(*n0);
  ASSERT_TRUE(node.ok());
  EXPECT_EQ((*node)->name(), "n0");
  EXPECT_EQ((*node)->size(), 1u << 20);
}

TEST(FabricTest, UnknownNodeIsKeyError) {
  Fabric fabric(FastConfig());
  EXPECT_EQ(fabric.node(5).status().code(), StatusCode::kKeyError);
}

TEST(FabricTest, ExportRegionValidatesWindow) {
  Fabric fabric(FastConfig());
  // Only the second half of the slab is disaggregated.
  auto n0 = fabric.AddNode("n0", 1 << 20, /*disagg_offset=*/1 << 19,
                           /*disagg_size=*/1 << 19);
  ASSERT_TRUE(n0.ok());
  EXPECT_FALSE(fabric.ExportRegion(*n0, 0, 1024).ok());  // private part
  EXPECT_TRUE(fabric.ExportRegion(*n0, 1 << 19, 1024).ok());
  EXPECT_FALSE(fabric.ExportRegion(*n0, (1 << 20) - 512, 1024).ok());
}

TEST(FabricTest, LocalAndRemoteAttachShareBytes) {
  Fabric fabric(FastConfig());
  auto n0 = fabric.AddNode("n0", 1 << 16);
  auto n1 = fabric.AddNode("n1", 1 << 16);
  ASSERT_TRUE(n0.ok() && n1.ok());
  auto region = fabric.ExportRegion(*n0, 0, 1 << 16);
  ASSERT_TRUE(region.ok());

  auto local = fabric.Attach(*n0, *region);
  auto remote = fabric.Attach(*n1, *region);
  ASSERT_TRUE(local.ok());
  ASSERT_TRUE(remote.ok());
  EXPECT_FALSE(local->is_remote());
  EXPECT_TRUE(remote->is_remote());
  EXPECT_EQ(local->size(), 1u << 16);

  // Home node writes; remote node reads the same bytes (coherent read).
  std::vector<uint8_t> data(4096);
  SplitMix64(7).Fill(data.data(), data.size());
  ASSERT_TRUE(local->Write(100, data.data(), data.size()).ok());
  std::vector<uint8_t> readback(4096);
  ASSERT_TRUE(remote->Read(100, readback.data(), readback.size()).ok());
  EXPECT_EQ(readback, data);
}

TEST(FabricTest, AttachBoundsChecked) {
  Fabric fabric(FastConfig());
  auto n0 = fabric.AddNode("n0", 1 << 16);
  ASSERT_TRUE(n0.ok());
  auto region = fabric.ExportRegion(*n0, 0, 4096);
  ASSERT_TRUE(region.ok());
  auto attached = fabric.Attach(*n0, *region);
  ASSERT_TRUE(attached.ok());
  uint8_t byte = 0;
  EXPECT_FALSE(attached->Read(4096, &byte, 1).ok());
  EXPECT_FALSE(attached->Read(4000, &byte, 200).ok());
  EXPECT_FALSE(attached->Write(UINT64_MAX, &byte, 2).ok());
  EXPECT_TRUE(attached->Read(4095, &byte, 1).ok());
}

TEST(FabricTest, ChecksumReadMatchesContents) {
  Fabric fabric(FastConfig());
  auto n0 = fabric.AddNode("n0", 1 << 20);
  auto n1 = fabric.AddNode("n1", 1 << 20);
  ASSERT_TRUE(n0.ok() && n1.ok());
  auto region = fabric.ExportRegion(*n0, 0, 1 << 20);
  ASSERT_TRUE(region.ok());
  auto local = fabric.Attach(*n0, *region);
  auto remote = fabric.Attach(*n1, *region);
  ASSERT_TRUE(local.ok() && remote.ok());

  std::vector<uint8_t> data(300000);
  SplitMix64(11).Fill(data.data(), data.size());
  ASSERT_TRUE(local->Write(5, data.data(), data.size()).ok());

  uint32_t expected = Crc32(data.data(), data.size());
  auto local_crc = local->ChecksumRead(5, data.size(), /*chunk=*/77777);
  auto remote_crc = remote->ChecksumRead(5, data.size(), /*chunk=*/4096);
  ASSERT_TRUE(local_crc.ok());
  ASSERT_TRUE(remote_crc.ok());
  EXPECT_EQ(*local_crc, expected);
  EXPECT_EQ(*remote_crc, expected);
}

// ChecksumRead is Read without the copy: each chunk is one modelled
// read, so the fabric counters move exactly as Reads of the same chunks.
TEST(FabricTest, ChecksumReadCountsLikeChunkedReads) {
  Fabric fabric(FastConfig());
  auto n0 = fabric.AddNode("n0", 1 << 20);
  auto n1 = fabric.AddNode("n1", 1 << 20);
  ASSERT_TRUE(n0.ok() && n1.ok());
  auto region = fabric.ExportRegion(*n0, 0, 1 << 20);
  ASSERT_TRUE(region.ok());
  auto local = fabric.Attach(*n0, *region);
  auto remote = fabric.Attach(*n1, *region);
  ASSERT_TRUE(local.ok() && remote.ok());

  constexpr uint64_t kOffset = 13, kSize = 100000, kChunk = 4096;
  auto delta = [&fabric](const FabricStats& before) {
    FabricStats after = fabric.stats();
    return std::vector<uint64_t>{
        after.local.reads - before.local.reads,
        after.local.read_bytes - before.local.read_bytes,
        after.remote.reads - before.remote.reads,
        after.remote.read_bytes - before.remote.read_bytes};
  };
  for (const AttachedRegion* region_view : {&*local, &*remote}) {
    FabricStats before = fabric.stats();
    ASSERT_TRUE(region_view->ChecksumRead(kOffset, kSize, kChunk).ok());
    std::vector<uint64_t> checksummed = delta(before);

    before = fabric.stats();
    std::vector<uint8_t> scratch(kChunk);
    for (uint64_t pos = 0; pos < kSize; pos += kChunk) {
      ASSERT_TRUE(region_view
                      ->Read(kOffset + pos, scratch.data(),
                             std::min(kChunk, kSize - pos))
                      .ok());
    }
    EXPECT_EQ(checksummed, delta(before));
    const uint64_t chunks = (kSize + kChunk - 1) / kChunk;
    const size_t side = region_view->is_remote() ? 2 : 0;
    EXPECT_EQ(checksummed[side], chunks);
    EXPECT_EQ(checksummed[side + 1], kSize);
  }
}

TEST(FabricTest, ChecksumReadFailsAcrossPartitionedLink) {
  net::FaultInjector injector(/*seed=*/3);
  Fabric fabric(FastConfig());
  fabric.SetFaultInjector(&injector);
  auto n0 = fabric.AddNode("n0", 1 << 16);
  auto n1 = fabric.AddNode("n1", 1 << 16);
  ASSERT_TRUE(n0.ok() && n1.ok());
  auto region = fabric.ExportRegion(*n0, 0, 1 << 16);
  ASSERT_TRUE(region.ok());
  auto local = fabric.Attach(*n0, *region);
  auto remote = fabric.Attach(*n1, *region);
  ASSERT_TRUE(local.ok() && remote.ok());
  ASSERT_TRUE(remote->ChecksumRead(0, 8192).ok());

  net::LinkFault partition;
  partition.partitioned = true;
  injector.SetFault(*n1, *n0, partition);
  const uint64_t remote_reads = fabric.stats().remote.reads;
  auto crc = remote->ChecksumRead(0, 8192, /*chunk=*/1024);
  EXPECT_EQ(crc.status().code(), StatusCode::kUnavailable) << crc.status();
  EXPECT_EQ(fabric.stats().remote.reads, remote_reads)
      << "a dropped access must not count as a read";
  // The home node's own loads do not cross the link.
  EXPECT_TRUE(local->ChecksumRead(0, 8192).ok());

  injector.ClearFault(*n1, *n0);
  EXPECT_TRUE(remote->ChecksumRead(0, 8192).ok());
}

TEST(FabricTest, CountersSplitLocalAndRemote) {
  Fabric fabric(FastConfig());
  auto n0 = fabric.AddNode("n0", 1 << 16);
  auto n1 = fabric.AddNode("n1", 1 << 16);
  ASSERT_TRUE(n0.ok() && n1.ok());
  auto region = fabric.ExportRegion(*n0, 0, 1 << 16);
  ASSERT_TRUE(region.ok());
  auto local = fabric.Attach(*n0, *region);
  auto remote = fabric.Attach(*n1, *region);
  ASSERT_TRUE(local.ok() && remote.ok());

  uint8_t buf[64] = {};
  ASSERT_TRUE(local->Write(0, buf, 64).ok());
  ASSERT_TRUE(local->Read(0, buf, 64).ok());
  ASSERT_TRUE(remote->Read(0, buf, 32).ok());

  FabricStats stats = fabric.stats();
  EXPECT_EQ(stats.local.writes, 1u);
  EXPECT_EQ(stats.local.write_bytes, 64u);
  EXPECT_EQ(stats.local.reads, 1u);
  EXPECT_EQ(stats.remote.reads, 1u);
  EXPECT_EQ(stats.remote.read_bytes, 32u);
  EXPECT_EQ(stats.remote.writes, 0u);
}

TEST(FabricTest, RemoteReadIsSlowerThanLocalUnderModel) {
  FabricConfig config;
  config.local = LatencyParams{0, 50.0};    // fast local
  config.remote = LatencyParams{0, 0.25};   // 200x slower remote
  Fabric fabric(config);
  auto n0 = fabric.AddNode("n0", 8 << 20);
  auto n1 = fabric.AddNode("n1", 8 << 20);
  ASSERT_TRUE(n0.ok() && n1.ok());
  auto region = fabric.ExportRegion(*n0, 0, 8 << 20);
  ASSERT_TRUE(region.ok());
  auto local = fabric.Attach(*n0, *region);
  auto remote = fabric.Attach(*n1, *region);
  ASSERT_TRUE(local.ok() && remote.ok());

  std::vector<uint8_t> buf(4 << 20);
  // Warm-up: fault in the slab and scratch pages so the timed section
  // measures the model, not first-touch cost.
  ASSERT_TRUE(local->Read(0, buf.data(), buf.size()).ok());

  Stopwatch sw;
  ASSERT_TRUE(local->Read(0, buf.data(), buf.size()).ok());
  int64_t local_ns = sw.ElapsedNanos();
  sw.Reset();
  ASSERT_TRUE(remote->Read(0, buf.data(), buf.size()).ok());
  int64_t remote_ns = sw.ElapsedNanos();
  // Modelled remote floor: 4 MiB / 0.25 GiB/s ≈ 15.6 ms. The local read
  // is unfloored (memcpy speed), so a 2x margin is ample headroom for
  // host noise.
  EXPECT_GE(remote_ns, 15 * 1000 * 1000);
  EXPECT_GT(remote_ns, local_ns * 2);
}

TEST(FabricTest, WholeSlabExportedByDefault) {
  Fabric fabric(FastConfig());
  auto n0 = fabric.AddNode("n0", 4096);
  ASSERT_TRUE(n0.ok());
  auto node = fabric.node(*n0);
  ASSERT_TRUE(node.ok());
  EXPECT_TRUE((*node)->InDisaggWindow(0, 4096));
}

TEST(NodeMemoryTest, DisaggWindowExceedingSlabRejected) {
  auto node = NodeMemory::Create(0, "bad", 4096, 2048, 4096, CacheConfig{});
  EXPECT_FALSE(node.ok());
}

TEST(NodeMemoryTest, ShareFdGivesSamePages) {
  auto node = NodeMemory::Create(0, "n", 4096, 0, 4096, CacheConfig{});
  ASSERT_TRUE(node.ok());
  (*node)->data()[9] = 0x77;
  auto fd = (*node)->ShareFd();
  ASSERT_TRUE(fd.ok());
  auto view = net::MemfdSegment::Map(std::move(fd).value(), 4096);
  ASSERT_TRUE(view.ok());
  EXPECT_EQ(view->data()[9], 0x77);
}

// ChecksumRead on the home node goes through the same cache model as
// Read, so it sees the Fig. 3b stale line too: its CRC is that of the
// bytes Read returns, not of memory.
TEST(FabricCoherencyTest, ChecksumReadSeesTheStaleHomeCacheLikeRead) {
  FabricConfig config;
  config.local = LatencyParams{0, 0.0};
  config.remote = LatencyParams{0, 0.0};
  config.model_home_cache = true;
  Fabric fabric(config);
  auto n0 = fabric.AddNode("home", 1 << 16);
  auto n1 = fabric.AddNode("writer", 1 << 16);
  ASSERT_TRUE(n0.ok() && n1.ok());
  auto region = fabric.ExportRegion(*n0, 0, 1 << 16);
  ASSERT_TRUE(region.ok());
  auto home = fabric.Attach(*n0, *region);
  auto writer = fabric.Attach(*n1, *region);
  ASSERT_TRUE(home.ok() && writer.ok());

  // A range that crosses 4 KiB boundaries at an odd offset.
  constexpr uint64_t kOffset = 3001, kSize = 9000;
  std::vector<uint8_t> old_bytes(kSize), new_bytes(kSize);
  SplitMix64(21).Fill(old_bytes.data(), kSize);
  SplitMix64(22).Fill(new_bytes.data(), kSize);
  ASSERT_TRUE(home->Write(kOffset, old_bytes.data(), kSize).ok());
  std::vector<uint8_t> seen(kSize);
  ASSERT_TRUE(home->Read(kOffset, seen.data(), kSize).ok());  // cached
  ASSERT_TRUE(writer->Write(kOffset, new_bytes.data(), kSize).ok());

  ASSERT_TRUE(home->Read(kOffset, seen.data(), kSize).ok());
  ASSERT_EQ(seen, old_bytes) << "the home cache should still be stale";
  auto home_crc = home->ChecksumRead(kOffset, kSize, /*chunk=*/5000);
  ASSERT_TRUE(home_crc.ok());
  EXPECT_EQ(*home_crc, Crc32(old_bytes.data(), kSize));
  auto writer_crc = writer->ChecksumRead(kOffset, kSize);
  ASSERT_TRUE(writer_crc.ok());
  EXPECT_EQ(*writer_crc, Crc32(new_bytes.data(), kSize));
}

}  // namespace
}  // namespace mdos::tf
