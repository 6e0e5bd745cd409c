#include "tf/attached_region.h"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <thread>

#include "common/clock.h"
#include "common/crc32.h"

namespace mdos::tf {

AttachedRegion::AttachedRegion(NodeMemory* home, uint64_t base_offset,
                               uint64_t size, bool remote,
                               bool model_home_cache,
                               LatencyParams latency,
                               RegionCounters* fabric_counters,
                               net::FaultInjector* injector,
                               uint32_t accessor_node)
    : home_(home),
      base_(home->data() + base_offset),
      base_offset_(base_offset),
      size_(size),
      remote_(remote),
      model_home_cache_(model_home_cache),
      latency_(latency),
      fabric_counters_(fabric_counters),
      injector_(injector),
      accessor_node_(accessor_node) {}

AttachedRegion::AttachedRegion(const AttachedRegion& other)
    : home_(other.home_),
      base_(other.base_),
      base_offset_(other.base_offset_),
      size_(other.size_),
      remote_(other.remote_),
      model_home_cache_(other.model_home_cache_),
      latency_(other.latency_),
      fabric_counters_(other.fabric_counters_),
      injector_(other.injector_),
      accessor_node_(other.accessor_node_),
      stream_cursor_(other.stream_cursor_.load(std::memory_order_relaxed)) {
}

AttachedRegion& AttachedRegion::operator=(const AttachedRegion& other) {
  if (this != &other) {
    home_ = other.home_;
    base_ = other.base_;
    base_offset_ = other.base_offset_;
    size_ = other.size_;
    remote_ = other.remote_;
    model_home_cache_ = other.model_home_cache_;
    latency_ = other.latency_;
    fabric_counters_ = other.fabric_counters_;
    injector_ = other.injector_;
    accessor_node_ = other.accessor_node_;
    stream_cursor_.store(
        other.stream_cursor_.load(std::memory_order_relaxed),
        std::memory_order_relaxed);
  }
  return *this;
}

Status AttachedRegion::CheckBounds(uint64_t offset, uint64_t size) const {
  if (home_ == nullptr) return Status::Invalid("region not attached");
  if (offset + size < offset || offset + size > size_) {
    return Status::Invalid("region access out of bounds");
  }
  return Status::OK();
}

Status AttachedRegion::ConsultInjector(uint64_t size) const {
  if (injector_ == nullptr || !remote_) return Status::OK();
  net::FaultInjector::Decision d =
      injector_->Consult(accessor_node_, home_->id(), size);
  if (d.delay_ns > 0) {
    std::this_thread::sleep_for(std::chrono::nanoseconds(d.delay_ns));
  }
  if (d.drop) {
    return Status::Unavailable("fabric link " +
                               std::to_string(accessor_node_) + " -> " +
                               std::to_string(home_->id()) +
                               " is partitioned");
  }
  return Status::OK();
}

template <typename Sink>
Status AttachedRegion::Load(uint64_t offset, uint64_t size,
                            Sink&& sink) const {
  MDOS_RETURN_IF_ERROR(CheckBounds(offset, size));
  MDOS_RETURN_IF_ERROR(ConsultInjector(size));
  const int64_t start = MonotonicNanos();
  // Sequential-stream detection: continuing (within the prefetch window)
  // where the last read ended skips the base access latency.
  uint64_t cursor = stream_cursor_.load(std::memory_order_relaxed);
  LatencyParams effective = latency_;
  if (offset >= cursor && offset - cursor <= kPrefetchWindow) {
    effective.base_latency_ns = 0;
  }
  stream_cursor_.store(offset + size, std::memory_order_relaxed);
  if (remote_ || !model_home_cache_) {
    // OpenCAPI remote reads are cache-coherent: load current memory in
    // place. (Local reads take the same fast path unless the functional
    // cache model is enabled — see FabricConfig::model_home_cache.)
    sink(base_ + offset, size);
  } else {
    // The home node reads its own memory through its CPU cache model and
    // can therefore observe stale lines after remote writes. Pieces end
    // on 4 KiB boundaries, so no cache line is split between two.
    uint8_t piece[4096] = {};
    uint64_t pos = base_offset_ + offset;
    const uint64_t end = pos + size;
    while (pos < end) {
      const uint64_t n = std::min(end, (pos | (sizeof piece - 1)) + 1) - pos;
      home_->home_cache().Read(pos, piece, n);
      sink(piece, n);
      pos += n;
    }
  }
  EnforceModel(effective, size, start);
  if (fabric_counters_ != nullptr) {
    __atomic_add_fetch(&fabric_counters_->reads, 1, __ATOMIC_RELAXED);
    __atomic_add_fetch(&fabric_counters_->read_bytes, size,
                       __ATOMIC_RELAXED);
  }
  return Status::OK();
}

Status AttachedRegion::Read(uint64_t offset, void* dst,
                            uint64_t size) const {
  auto* out = static_cast<uint8_t*>(dst);
  return Load(offset, size, [&out](const uint8_t* bytes, uint64_t n) {
    std::memcpy(out, bytes, n);
    out += n;
  });
}

Status AttachedRegion::Write(uint64_t offset, const void* src,
                             uint64_t size) const {
  MDOS_RETURN_IF_ERROR(CheckBounds(offset, size));
  MDOS_RETURN_IF_ERROR(ConsultInjector(size));
  const int64_t start = MonotonicNanos();
  if (remote_) {
    // Data is flushed to home DRAM but the home node's cached lines are
    // not invalidated — the paper's Fig. 3b hazard.
    std::memcpy(base_ + offset, src, size);
    home_->home_cache().NoteRemoteWrite(base_offset_ + offset, size);
  } else if (model_home_cache_) {
    home_->home_cache().Write(base_offset_ + offset, src, size);
  } else {
    std::memcpy(base_ + offset, src, size);
  }
  EnforceModel(latency_, size, start);
  if (fabric_counters_ != nullptr) {
    __atomic_add_fetch(&fabric_counters_->writes, 1, __ATOMIC_RELAXED);
    __atomic_add_fetch(&fabric_counters_->write_bytes, size,
                       __ATOMIC_RELAXED);
  }
  return Status::OK();
}

Result<uint32_t> AttachedRegion::ChecksumRead(uint64_t offset,
                                              uint64_t size,
                                              uint64_t chunk) const {
  MDOS_RETURN_IF_ERROR(CheckBounds(offset, size));
  if (chunk == 0) return Status::Invalid("chunk must be positive");
  uint32_t crc = 0;
  for (uint64_t pos = 0; pos < size; pos += chunk) {
    MDOS_RETURN_IF_ERROR(Load(offset + pos, std::min(chunk, size - pos),
                              [&crc](const uint8_t* bytes, uint64_t n) {
                                crc = Crc32Update(crc, bytes, n);
                              }));
  }
  return crc;
}

RegionCounters AttachedRegion::counters() const {
  if (fabric_counters_ == nullptr) return {};
  RegionCounters out;
  out.reads = __atomic_load_n(&fabric_counters_->reads, __ATOMIC_RELAXED);
  out.read_bytes =
      __atomic_load_n(&fabric_counters_->read_bytes, __ATOMIC_RELAXED);
  out.writes =
      __atomic_load_n(&fabric_counters_->writes, __ATOMIC_RELAXED);
  out.write_bytes =
      __atomic_load_n(&fabric_counters_->write_bytes, __ATOMIC_RELAXED);
  return out;
}

}  // namespace mdos::tf
