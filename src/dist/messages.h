// Store↔store RPC messages (the paper's gRPC protobufs, re-expressed in
// the wire module's encoding).
//
// Stores interconnect with unary RPC (§IV-A2; pipelined channels here,
// see rpc/channel.h). The method surface:
//   Plasma.Hello        — handshake: exchange node ids, pool regions and
//                         (shared-index extension) the index region
//   Plasma.Lookup       — batched sealed-object location lookup
//   Plasma.Probe        — id-uniqueness probe (sees unsealed objects too)
//   Plasma.Pin/Unpin    — distributed usage tracking (remote pins)
//   Plasma.Ping         — liveness heartbeat driving peer health states
//   Plasma.Replicate    — ask a replica target to pull one sealed object
//                         out of the sender's pool over the fabric
//   Plasma.ReplicaDrop  — origin deleted: drop the local replica copy
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/object_id.h"
#include "common/status.h"
#include "plasma/store.h"
#include "wire/wire.h"

namespace mdos::dist {

// Method names registered with the RPC server.
inline constexpr const char* kMethodHello = "Plasma.Hello";
inline constexpr const char* kMethodLookup = "Plasma.Lookup";
inline constexpr const char* kMethodProbe = "Plasma.Probe";
inline constexpr const char* kMethodPin = "Plasma.Pin";
inline constexpr const char* kMethodUnpin = "Plasma.Unpin";
inline constexpr const char* kMethodPing = "Plasma.Ping";
inline constexpr const char* kMethodReplicate = "Plasma.Replicate";
inline constexpr const char* kMethodReplicaDrop = "Plasma.ReplicaDrop";

// ---- hello -----------------------------------------------------------------

struct HelloRequest {
  uint32_t node_id = 0;
  static void Fields(auto& m, auto& v) { v(m.node_id); }
};

struct HelloReply {
  uint32_t node_id = 0;
  uint32_t pool_region = UINT32_MAX;
  // Shared-index extension: fabric region of the replier's index table;
  // UINT32_MAX when the extension is disabled.
  uint32_t index_region = UINT32_MAX;
  // Mapped data plane: fabric region of the replier's generation table
  // (plasma/generation_table.h); UINT32_MAX when mapped remote reads are
  // disabled. Peers attach it to validate descriptors against eviction.
  uint32_t gen_region = UINT32_MAX;
  std::string store_name;
  static void Fields(auto& m, auto& v) {
    v(m.node_id, m.pool_region, m.index_region, m.gen_region, m.store_name);
  }
};

// ---- lookup ----------------------------------------------------------------

struct LookupRequest {
  std::vector<ObjectId> ids;
  static void Fields(auto& m, auto& v) { v(m.ids); }
};

struct LookupEntry {
  ObjectId id;
  bool found = false;
  plasma::RemoteObjectLocation location;
  static void Fields(auto& m, auto& v) { v(m.id, m.found, m.location); }
};

struct LookupReply {
  std::vector<LookupEntry> entries;
  static void Fields(auto& m, auto& v) { v(m.entries); }
};

// ---- probe -----------------------------------------------------------------

struct ProbeRequest {
  ObjectId id;
  static void Fields(auto& m, auto& v) { v(m.id); }
};

struct ProbeReply {
  bool exists = false;
  static void Fields(auto& m, auto& v) { v(m.exists); }
};

// ---- pin / unpin -----------------------------------------------------------

struct PinRequest {
  ObjectId id;
  uint32_t peer_node = 0;  // the pinning (requesting) node
  // Where the pinning node's lookup found the object. The home refuses
  // a pin whose entry no longer matches (Store::PinForPeer).
  uint64_t offset = 0;
  uint64_t data_size = 0;
  uint64_t metadata_size = 0;
  plasma::RemoteObjectLocation location() const {
    plasma::RemoteObjectLocation loc;
    loc.offset = offset;
    loc.data_size = data_size;
    loc.metadata_size = metadata_size;
    return loc;
  }
  static void Fields(auto& m, auto& v) {
    v(m.id, m.peer_node, m.offset, m.data_size, m.metadata_size);
  }
};

struct PinReply {
  Status status;
  static void Fields(auto& m, auto& v) { v(m.status); }
};

// Unpin reuses the same shapes; it ignores the location fields.
using UnpinRequest = PinRequest;
using UnpinReply = PinReply;

// ---- ping (heartbeat) ------------------------------------------------------

struct PingRequest {
  uint32_t from_node = 0;
  static void Fields(auto& m, auto& v) { v(m.from_node); }
};

struct PingReply {
  uint32_t node_id = 0;  // the replier, so a restarted peer is recognised
  static void Fields(auto& m, auto& v) { v(m.node_id); }
};

// ---- replicate (k-way replication fan-out) ---------------------------------

struct ReplicateRequest {
  ObjectId id;
  uint32_t from_node = 0;       // the pushing node (usually the origin)
  uint32_t origin_node = 0;     // the node whose Seal published the object
  uint32_t desired_copies = 0;  // k the object is being held to
  // The full intended copy set (origin + every replica target), so every
  // holder can run the re-heal election without another round trip.
  std::vector<uint32_t> copy_nodes;
  // Where the bytes are: the sender's pool region and the region-relative
  // offset of the data section (the metadata section follows it). The
  // target reads them through its own fabric attachment of that region.
  uint32_t region = 0;
  uint64_t offset = 0;
  uint64_t data_size = 0;
  uint64_t metadata_size = 0;
  // Crc32 of those bytes as the sender sealed them. The target refuses a
  // copy that does not match: the sender keeps the bytes in place only
  // until this RPC completes, and a timeout can end it before the pull.
  uint32_t crc = 0;
  plasma::RemoteObjectLocation source() const {
    plasma::RemoteObjectLocation loc;
    loc.home_node = from_node;
    loc.home_region = region;
    loc.offset = offset;
    loc.data_size = data_size;
    loc.metadata_size = metadata_size;
    return loc;
  }
  static void Fields(auto& m, auto& v) {
    v(m.id, m.from_node, m.origin_node, m.desired_copies, m.copy_nodes,
      m.region, m.offset, m.data_size, m.metadata_size, m.crc);
  }
};

struct ReplicateReply {
  Status status;
  static void Fields(auto& m, auto& v) { v(m.status); }
};

// ---- replica drop (origin delete propagation) ------------------------------

struct ReplicaDropRequest {
  ObjectId id;
  uint32_t from_node = 0;  // must match the replica's recorded origin
  static void Fields(auto& m, auto& v) { v(m.id, m.from_node); }
};

struct ReplicaDropReply {
  Status status;
  static void Fields(auto& m, auto& v) { v(m.status); }
};

}  // namespace mdos::dist
