// AttachedRegion — a node's handle to a (local or remote) disaggregated
// memory region, the software stand-in for ThymesisFlow's mapped window.
//
// All data-plane traffic in the framework flows through these accessors:
//   Read  — coherent load burst. Local attachments read through the home
//           node's modelled CPU cache (so they can observe the Fig. 3b
//           staleness hazard after remote writes); remote attachments
//           read home memory directly (OpenCAPI reads are coherent).
//   Write — store burst. Local writes update memory + home cache; remote
//           writes update memory but deliberately leave the home cache
//           stale (the modelled incoherence).
// Both enforce the appropriate LatencyParams so benchmark timings follow
// the modelled local/remote DRAM characteristics.
#pragma once

#include <atomic>
#include <cstdint>

#include "common/status.h"
#include "net/fault_injector.h"
#include "tf/latency_model.h"
#include "tf/node_memory.h"

namespace mdos::tf {

struct RegionCounters {
  uint64_t reads = 0;
  uint64_t read_bytes = 0;
  uint64_t writes = 0;
  uint64_t write_bytes = 0;
};

class Fabric;

class AttachedRegion {
 public:
  AttachedRegion() = default;
  // Copyable; the streaming-detection cursor is advisory state and is
  // carried over as a plain value.
  AttachedRegion(const AttachedRegion& other);
  AttachedRegion& operator=(const AttachedRegion& other);

  bool valid() const { return home_ != nullptr; }
  bool is_remote() const { return remote_; }
  // Region extent, in offsets relative to the region start.
  uint64_t size() const { return size_; }
  NodeId home_node() const { return home_ ? home_->id() : 0; }

  // Coherent read of [offset, offset+size) into dst.
  Status Read(uint64_t offset, void* dst, uint64_t size) const;

  // Write src into [offset, offset+size). Remote writes trigger the
  // modelled home-cache staleness (see CacheModel::NoteRemoteWrite).
  Status Write(uint64_t offset, const void* src, uint64_t size) const;

  // Streaming read that applies the model in `chunk` pieces and returns
  // the CRC32 of the data read. The CRC is taken over the mapped bytes
  // in place, inside each chunk's modelled window, as a consumer loading
  // from mapped remote memory does: nothing is allocated, and only a
  // home read through the cache model copies. Each chunk counts as one
  // read in the fabric counters, exactly like Read.
  // This is the "client sequentially retrieves the buffer data" path of
  // the paper's benchmarks.
  Result<uint32_t> ChecksumRead(uint64_t offset, uint64_t size,
                                uint64_t chunk = 1 << 20) const;

  // Escape hatch for zero-copy consumers that understand the model; the
  // pointer addresses home memory directly with no latency enforcement.
  const uint8_t* unsafe_data() const { return base_; }

  const LatencyParams& latency() const { return latency_; }
  RegionCounters counters() const;

 private:
  friend class Fabric;
  AttachedRegion(NodeMemory* home, uint64_t base_offset, uint64_t size,
                 bool remote, bool model_home_cache, LatencyParams latency,
                 RegionCounters* fabric_counters,
                 net::FaultInjector* injector = nullptr,
                 uint32_t accessor_node = 0);

  Status CheckBounds(uint64_t offset, uint64_t size) const;
  // One modelled read of [offset, offset+size), shared by Read and each
  // ChecksumRead chunk: bounds, fault injector, stream detection, the
  // model charge and the fabric counters. `sink(bytes, n)` consumes the
  // bytes inside the charged window, in order: the mapped bytes in one
  // call, or pieces loaded through the home cache model.
  template <typename Sink>
  Status Load(uint64_t offset, uint64_t size, Sink&& sink) const;
  // Chaos hook: remote accesses consult the cluster's fault injector
  // (accessor -> home direction). A partitioned or dropped access fails
  // with Unavailable — the mapped data plane's equivalent of a lost
  // fabric link — and injected latency stalls the access like real
  // congestion would.
  Status ConsultInjector(uint64_t size) const;

  NodeMemory* home_ = nullptr;
  uint8_t* base_ = nullptr;      // home slab + region base offset
  uint64_t base_offset_ = 0;     // offset of region start in home slab
  uint64_t size_ = 0;
  bool remote_ = false;
  bool model_home_cache_ = false;
  LatencyParams latency_;
  RegionCounters* fabric_counters_ = nullptr;  // owned by the Fabric
  // Borrowed from the cluster (outlives every attachment); null when no
  // fault injection is wired. Only consulted on remote accesses.
  net::FaultInjector* injector_ = nullptr;
  uint32_t accessor_node_ = 0;

  // Streaming detection (hardware prefetch model): a read that continues
  // within kPrefetchWindow bytes of where the previous read on this
  // accessor ended is treated as part of an ongoing sequential stream
  // and does not pay the base access latency again — only the bandwidth
  // cost. This mirrors how a CPU scanning a mapped ThymesisFlow region
  // pipelines its cache-line misses: the paper's benches 1-3 (many small
  // objects, allocated contiguously) stay near full bandwidth on real
  // hardware. Relaxed atomicity: races only blur the latency decision.
  static constexpr uint64_t kPrefetchWindow = 4096;
  mutable std::atomic<uint64_t> stream_cursor_{UINT64_MAX};
};

}  // namespace mdos::tf
