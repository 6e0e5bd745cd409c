// ObjectTable — the store's bookkeeping of Plasma objects.
//
// "The Plasma store is essentially a memory bookkeeping service for
// Plasma data objects" (paper §IV-A1). The table maps object ids to their
// pool placement and lifecycle state:
//
//   created --Seal--> sealed --Delete/Evict--> gone
//      \--Abort--> gone       \--Spill--> spilled --Restore--> sealed
//                                  \--Delete--> gone
//
// Sealed objects are immutable; clients pin them with Get and unpin with
// Release, and only unpinned sealed objects are evictable. kSpilled is
// the disk tier's state: the object's bytes live in the owning shard's
// spill file (ObjectEntry::spill_offset), its pool allocation is gone,
// and a Get transparently restores it to kSealed before replying —
// spilled objects are therefore never pinned and never in the eviction
// LRU. Spilled bytes are tracked separately from bytes_in_use (which
// counts pool residency only). The table is
// not internally synchronized: in the sharded store core each shard owns
// one ObjectTable covering its hash slice of the object space, guarded
// (together with that shard's allocator arena and eviction policy) by
// the shard's mutex. Any thread — another shard's event loop, the RPC
// server thread — takes that mutex to touch the slice, which generalizes
// the paper's single table + single mutex design (the mechanism it added
// when the RPC thread started sharing the object-identifier map) to N
// independent slices.
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "common/object_id.h"
#include "common/status.h"
#include "plasma/protocol.h"

namespace mdos::plasma {

enum class ObjectState : uint8_t {
  kCreated = 0,
  kSealed = 1,
  kSpilled = 2,  // sealed, but resident in the shard's spill file
};

struct ObjectEntry {
  ObjectId id;
  ObjectState state = ObjectState::kCreated;
  uint64_t offset = 0;  // pool-relative offset of the data section
  uint64_t data_size = 0;
  uint64_t metadata_size = 0;
  // File offset of the record in the shard's spill file (kSpilled only;
  // `offset` is meaningless while spilled).
  uint64_t spill_offset = 0;
  uint32_t local_refs = 0;  // local client pins + replication pushes
  int creator_fd = -1;      // connection that created it (abort cleanup)
  int64_t created_ns = 0;
  int64_t sealed_ns = 0;

  // k-way replication (PR 8). desired_copies is how many live copies the
  // object should have cluster-wide; copy_nodes is the node set believed
  // to hold one (self included). origin_node is the node whose Seal
  // published the object — replicas (origin != self) never fan out on
  // their own and are dropped when the origin deletes.
  uint32_t desired_copies = 1;
  uint32_t origin_node = 0;
  std::vector<uint32_t> copy_nodes;

  uint64_t total_size() const { return data_size + metadata_size; }
};

class ObjectTable {
 public:
  // Registers a freshly created (unsealed) object.
  Status AddCreated(const ObjectEntry& entry);

  [[nodiscard]] bool Contains(const ObjectId& id) const;
  // True for kSealed and kSpilled: both are immutable and retrievable
  // here; residency (pool vs spill file) is a tier detail callers that
  // only ask about availability should not see.
  [[nodiscard]] bool ContainsSealed(const ObjectId& id) const;

  // Copy-out lookup; KeyError when absent.
  Result<ObjectEntry> Lookup(const ObjectId& id) const;

  // created -> sealed. NotSealed-state errors map to the paper's
  // race-free seal semantics.
  Status Seal(const ObjectId& id);

  Status AddRef(const ObjectId& id);
  // Returns the new ref count.
  Result<uint32_t> ReleaseRef(const ObjectId& id);

  // sealed -> spilled: the pool allocation is being released and the
  // bytes now live at `spill_offset` in the shard's spill file. Fails
  // unless the object is sealed, unpinned, and unspilled.
  Status MarkSpilled(const ObjectId& id, uint64_t spill_offset);
  // spilled -> sealed: the bytes were read back into the pool at
  // `pool_offset`.
  Status MarkRestored(const ObjectId& id, uint64_t pool_offset);
  // Rewrites a spilled entry's file offset (spill-file compaction).
  Status UpdateSpillOffset(const ObjectId& id, uint64_t spill_offset);

  // Removes an object and returns its entry (for allocator free, or
  // spill-slot free when the entry was kSpilled).
  // `force` skips the sealed/ref checks (abort & disconnect cleanup).
  Result<ObjectEntry> Remove(const ObjectId& id, bool force = false);

  std::vector<ObjectInfo> List() const;
  // Unsealed objects created by `fd` (client-crash cleanup).
  std::vector<ObjectId> UnsealedCreatedBy(int fd) const;

  // ---- k-way replication bookkeeping ------------------------------------
  // The node id the owning shard runs on; feeds the replication
  // aggregates (a copy on another node counts toward replicas_total only
  // on the object's origin node).
  void set_self_node(uint32_t node) { self_node_ = node; }

  // Rewrites an entry's replication record (desired copy count, origin,
  // and the believed copy set) and keeps the aggregates consistent.
  Status SetReplication(const ObjectId& id, uint32_t desired,
                        uint32_t origin, std::vector<uint32_t> copy_nodes);

  // Sealed/spilled objects whose copy set includes `node` (re-heal scan
  // after that node dies).
  std::vector<ObjectId> CollectReplicatedWith(uint32_t node) const;

  // Sealed/spilled objects below their desired copy count (the re-heal
  // worker's periodic sweep — catches copies whose initial push failed
  // over a faulted network).
  std::vector<ObjectId> CollectUnderReplicated() const;

  // Remote copies of locally-originated sealed/spilled objects.
  uint64_t replicas_total() const { return replicas_total_; }
  // Sealed/spilled objects below their desired copy count.
  uint64_t under_replicated() const { return under_replicated_; }

  size_t size() const { return entries_.size(); }
  // Sealed objects resident in the pool (spilled objects not included).
  size_t sealed_count() const { return sealed_count_; }
  // Pool bytes only; spilled bytes are reported separately.
  uint64_t bytes_in_use() const { return bytes_in_use_; }
  size_t spilled_count() const { return spilled_count_; }
  uint64_t spilled_bytes() const { return spilled_bytes_; }

 private:
  // An entry contributes to the replication aggregates only while sealed
  // or spilled; these are paired around every counted-state or
  // replication-field change.
  void AddReplicationAggregates(const ObjectEntry& entry);
  void SubReplicationAggregates(const ObjectEntry& entry);

  std::unordered_map<ObjectId, ObjectEntry> entries_;
  size_t sealed_count_ = 0;
  uint64_t bytes_in_use_ = 0;
  size_t spilled_count_ = 0;
  uint64_t spilled_bytes_ = 0;
  uint32_t self_node_ = 0;
  uint64_t replicas_total_ = 0;
  uint64_t under_replicated_ = 0;
};

}  // namespace mdos::plasma
