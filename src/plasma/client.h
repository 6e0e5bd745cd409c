// PlasmaClient — application-facing blocking handle to a node-local
// Plasma store.
//
// Mirrors the Apache Arrow Plasma client API: Create/Seal publish an
// immutable object, Get retrieves read-only buffers (blocking with a
// timeout until objects are sealed), Release unpins. In the
// memory-disaggregated framework the distributed nature "largely remains
// hidden to Plasma clients" (paper §IV-A2): Get transparently returns
// buffers that may point into a *remote* node's disaggregated memory; the
// client consumes them through fabric loads with no copy over the LAN.
// The same transparency covers the store's disk spill tier: a Get for an
// object that was spilled blocks while the store restores it and then
// returns an ordinary local buffer — no client-visible state or API
// distinguishes the tiers (only latency, and the spill counters in
// Stats/ShardStats).
//
// Since the async API redesign, every method here is a thin blocking shim
// over AsyncClient (plasma/async_client.h): the request is dispatched
// through the pipelined, request-tagged core and the caller waits on the
// returned future. Callers that want more than one operation in flight
// should hold an AsyncClient instead.
//
// Threading contract: a PlasmaClient must be driven by ONE thread — the
// thread that makes its first call (the paper's benchmarks are
// single-threaded per client). This is asserted in debug builds. The
// underlying AsyncClient is fully thread-safe; the shim keeps the
// historical contract so misuse is caught rather than silently relied on.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/deadline.h"
#include "common/mutex.h"
#include "common/object_id.h"
#include "common/status.h"
#include "net/fd.h"
#include "net/memfd.h"
#include "plasma/generation_table.h"
#include "plasma/protocol.h"
#include "tf/fabric.h"

namespace mdos::plasma {

class AsyncClient;

// Client-side handle to a home store's mapped generation table: the
// fabric attachment keeps the mapping alive, the reader validates
// descriptors against it. One per (node, gen region), shared by every
// mapped buffer the client resolves from that store.
struct MappedGenTable {
  std::shared_ptr<tf::AttachedRegion> attachment;
  GenerationReader reader;
};

struct ClientOptions {
  std::string client_name = "client";
  // With a fabric, buffer access is routed through AttachedRegion
  // accessors (modelled local/remote latency + coherency); without one,
  // the client mmaps the pool fd and accesses it raw (unit-test mode).
  tf::Fabric* fabric = nullptr;
};

// A handle to an object's bytes. Writable between Create and Seal;
// read-only after Get. Data section first, metadata section after it.
class ObjectBuffer {
 public:
  ObjectBuffer() = default;

  const ObjectId& id() const { return id_; }
  uint64_t data_size() const { return data_size_; }
  uint64_t metadata_size() const { return metadata_size_; }
  bool writable() const { return writable_; }
  bool is_remote() const { return remote_; }
  // True while the buffer is a mapped (unpinned) remote descriptor.
  // Every read validates the object's generation after copying; a
  // transparent fallback to a pinned Get clears this flag.
  bool is_mapped() const { return gen_ != nullptr; }
  bool valid() const { return valid_; }

  // Data-section access.
  Status ReadData(uint64_t offset, void* dst, uint64_t size) const;
  Status WriteData(uint64_t offset, const void* src, uint64_t size);
  // Streaming read of the whole data section; returns its CRC32. This is
  // the paper's "sequentially retrieve the buffer data" consumption path.
  // Through a fabric the CRC is taken over the mapped bytes in place
  // (AttachedRegion::ChecksumRead); on a mapped buffer it is returned
  // only if the generation re-check after it passes.
  Result<uint32_t> ChecksumData(uint64_t chunk = 1 << 20) const;

  // Metadata-section access.
  Status ReadMetadata(uint64_t offset, void* dst, uint64_t size) const;
  Status WriteMetadata(uint64_t offset, const void* src, uint64_t size);

  // Convenience for small objects/tests.
  Result<std::vector<uint8_t>> CopyData() const;
  Status WriteDataFrom(std::string_view bytes);

 private:
  friend class AsyncClient;

  // Shared by the owning AsyncClient and every mapped buffer it hands
  // out: the transparent mapped→pinned fallback reaches back into the
  // client from a const read path, and must go inert (not dangle) when
  // the client disconnects.
  struct RefetchContext {
    Mutex mutex;
    AsyncClient* client GUARDED_BY(mutex) = nullptr;
  };

  Status CheckAccess(uint64_t section_size, uint64_t offset,
                     uint64_t size) const;
  Status RawRead(uint64_t offset, void* dst, uint64_t size) const;
  Status RawWrite(uint64_t offset, const void* src, uint64_t size);
  // Seqlock read side: true when the generation (and table epoch) still
  // match the descriptor after a completed copy, i.e. no destructive
  // transition overlapped it. Only called when gen_ is set.
  [[nodiscard]] bool GenerationIntact() const;
  // Generation mismatch: retire the mapped descriptor and swap in a
  // pinned buffer from the owning client (clears gen_), so the caller's
  // read can be retried against stable bytes.
  Status FallbackToPinned() const;

  ObjectId id_;
  bool valid_ = false;
  bool writable_ = false;
  uint64_t data_size_ = 0;
  uint64_t metadata_size_ = 0;

  // The backing (and the mapped-validation state below) is mutable:
  // reads are const, but a generation-mismatch fallback transparently
  // rebinds the buffer from the mapped region to a pinned one.
  mutable bool remote_ = false;
  mutable uint64_t base_ = 0;  // offset of the data section in region/map

  // Fabric path (modelled access):
  mutable std::shared_ptr<tf::AttachedRegion> region_;
  // Raw path (no fabric):
  mutable uint8_t* raw_ = nullptr;

  // Mapped data plane (remote descriptor buffers only): the generation
  // the home store stamped the descriptor with, re-checked against the
  // peer's table after every copy. Null gen_ means a plain buffer.
  mutable std::shared_ptr<const MappedGenTable> gen_;
  mutable uint64_t generation_ = 0;
  mutable uint64_t gen_slot_ = 0;
  mutable uint64_t gen_epoch_ = 0;
  std::shared_ptr<RefetchContext> refetch_;
};

// A notification-only connection to a store (upstream Plasma's
// "notification socket"): receives a push for every seal and delete.
class NotificationListener {
 public:
  NotificationListener() = default;
  NotificationListener(NotificationListener&&) = default;
  NotificationListener& operator=(NotificationListener&&) = default;

  // Opens the dedicated connection and subscribes.
  static Result<NotificationListener> Connect(
      const std::string& socket_path,
      const std::string& subscriber_name = "subscriber");

  // Blocks for the next notification; `timeout_ms` 0 waits forever.
  Result<Notification> Next(uint64_t timeout_ms = 0);

  bool connected() const { return fd_.valid(); }

 private:
  net::UniqueFd fd_;
};

class PlasmaClient {
 public:
  static Result<std::unique_ptr<PlasmaClient>> Connect(
      const std::string& socket_path, ClientOptions options = {});

  ~PlasmaClient();
  PlasmaClient(const PlasmaClient&) = delete;
  PlasmaClient& operator=(const PlasmaClient&) = delete;

  // Every operation below accepts an optional end-to-end `deadline`
  // (absolute — common/deadline.h). The remaining budget travels to the
  // store in the wire header and bounds every downstream peer RPC; an
  // exhausted budget surfaces as a typed DeadlineExceeded instead of a
  // hang. The default (infinite) keeps historical behavior.

  // Reserves an object of the given sizes and returns a writable buffer.
  // Fails with AlreadyExists if the id exists locally or a live peer
  // holds it when the store probes (concurrent Creates of one id on two
  // nodes can both succeed).
  // `replicate` asks the store to hold this object at ≥2 copies after
  // Seal even when its replication_factor is 1 (per-object opt-in).
  Result<ObjectBuffer> Create(const ObjectId& id, uint64_t data_size,
                              uint64_t metadata_size = 0,
                              bool replicate = false,
                              Deadline deadline = {});

  // Convenience: Create + WriteData + Seal in one call.
  Status CreateAndSeal(const ObjectId& id, std::string_view data,
                       std::string_view metadata = {},
                       bool replicate = false, Deadline deadline = {});

  // Makes the object immutable and visible to all clients system-wide.
  Status Seal(const ObjectId& id, Deadline deadline = {});

  // Discards an unsealed object.
  Status Abort(const ObjectId& id, Deadline deadline = {});

  // Retrieves buffers for `ids`, blocking up to `timeout_ms` for objects
  // that are not yet sealed anywhere. Entries for objects that never
  // appeared are invalid (`!buffer.valid()`). A finite `deadline` also
  // clamps the store-side wait to the remaining budget.
  Result<std::vector<ObjectBuffer>> Get(const std::vector<ObjectId>& ids,
                                        uint64_t timeout_ms = 0,
                                        Deadline deadline = {});
  Result<ObjectBuffer> Get(const ObjectId& id, uint64_t timeout_ms = 0,
                           Deadline deadline = {});

  // Like Get, but forces the RPC+pin remote path even when the store
  // serves mapped descriptors: the returned buffer is pinned at its home
  // store and needs no generation validation. This is the rung mapped
  // reads fall back to, and the baseline benchmarks compare against.
  Result<ObjectBuffer> GetPinned(const ObjectId& id, uint64_t timeout_ms = 0,
                                 Deadline deadline = {});

  // Unpins one Get reference on the object.
  Status Release(const ObjectId& id, Deadline deadline = {});

  // True when the object is sealed in the local store.
  Result<bool> Contains(const ObjectId& id, Deadline deadline = {});

  // Removes a sealed, unreferenced local object.
  Status Delete(const ObjectId& id, Deadline deadline = {});

  Result<std::vector<ObjectInfo>> List();
  Result<StoreStats> Stats();
  // Per-shard breakdown from the sharded store core (GetStoreStats).
  Result<std::vector<ShardStatsEntry>> ShardStats();
  // Per-peer health rows from the dist layer (empty for a standalone
  // store without peers).
  Result<std::vector<PeerStatsEntry>> PeerStats();

  // Graceful disconnect (also performed by the destructor).
  Status Disconnect();

  uint32_t node_id() const;
  const std::string& store_name() const;

  // The pipelined core this shim drives; exposed so callers can migrate
  // incrementally (issue async operations on the same connection).
  AsyncClient& async() { return *core_; }

 private:
  PlasmaClient() = default;

  // Debug-build enforcement of the single-thread contract: the first
  // call stakes ownership, later calls must come from the same thread.
  void AssertSingleThread() const;

  std::unique_ptr<AsyncClient> core_;
  mutable std::atomic<std::thread::id> owner_thread_{};
};

}  // namespace mdos::plasma
