// Plasma store↔client IPC protocol.
//
// Clients talk to their node-local store over a Unix domain socket, as in
// upstream Apache Arrow Plasma (paper §IV-A2: "Plasma conducts
// Inter-Process Communication (IPC) between Plasma store and clients
// through Unix domain sockets"). Each message is one net::Frame whose
// frame type is the MessageType and whose payload is the wire-encoded
// struct below. Object *data* never travels through the socket: buffers
// live in the node's (disaggregated) memory pool; the pool fd crosses the
// socket once at connect time via SCM_RIGHTS, and buffer handles are
// (offset, size) pairs — or (node, region, offset, size) for remote
// objects resolved through the fabric.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/object_id.h"
#include "common/status.h"
#include "wire/wire.h"

namespace mdos::plasma {

enum class MessageType : uint32_t {
  kConnectRequest = 1,
  kConnectReply,
  kCreateRequest,
  kCreateReply,
  kSealRequest,
  kSealReply,
  kAbortRequest,
  kAbortReply,
  kGetRequest,
  kGetReply,
  kReleaseRequest,
  kReleaseReply,
  kContainsRequest,
  kContainsReply,
  kDeleteRequest,
  kDeleteReply,
  kListRequest,
  kListReply,
  kStatsRequest,
  kStatsReply,
  kDisconnectRequest,
  kSubscribeRequest,
  kSubscribeReply,
  kNotification,  // store -> subscriber push, no reply
  // GetStoreStats extension (sharded store core): per-shard statistics.
  kShardStatsRequest,
  kShardStatsReply,
  // Peer-health extension (cluster failure handling): one row per peer
  // store with its health state and failure counters.
  kPeerStatsRequest,
  kPeerStatsReply,
};

// Where an object's bytes live, from the requesting client's viewpoint.
enum class ObjectLocation : uint8_t {
  kLocal = 0,   // this node's pool; `offset` is pool-relative
  kRemote = 1,  // a remote node's exported region, reachable via fabric
};
constexpr ObjectLocation WireMax(ObjectLocation) {
  return ObjectLocation::kRemote;
}

// ---- connect -------------------------------------------------------------

struct ConnectRequest {
  std::string client_name;
  static void Fields(auto& m, auto& v) { v(m.client_name); }
};

struct ConnectReply {
  uint32_t node_id = 0;
  uint32_t pool_region_id = UINT32_MAX;  // fabric region of the pool
  uint64_t pool_size = 0;
  // Offset of the pool within the shared fd's mapping; clients that mmap
  // the fd directly add this to pool-relative offsets.
  uint64_t pool_slab_offset = 0;
  std::string store_name;
  // After this frame the store sends the pool memfd via SCM_RIGHTS.
  static void Fields(auto& m, auto& v) {
    v(m.node_id, m.pool_region_id, m.pool_size, m.pool_slab_offset,
      m.store_name);
  }
};

// ---- create / seal / abort ----------------------------------------------

struct CreateRequest {
  ObjectId id;
  uint64_t data_size = 0;
  uint64_t metadata_size = 0;
  // Per-object replication request: on Seal the store fans the bytes out
  // to peer replicas even when StoreOptions::replication_factor is 1
  // (the effective copy count is max(replication_factor, 2) then).
  bool replicate = false;
  static void Fields(auto& m, auto& v) {
    v(m.id, m.data_size, m.metadata_size, m.replicate);
  }
};

struct CreateReply {
  Status status;  // travels as (code, message)
  uint64_t offset = 0;  // pool-relative offset of the data section
  uint64_t data_size = 0;
  uint64_t metadata_size = 0;
  static void Fields(auto& m, auto& v) {
    v(m.status, m.offset, m.data_size, m.metadata_size);
  }
};

struct SealRequest {
  ObjectId id;
  static void Fields(auto& m, auto& v) { v(m.id); }
};

struct SealReply {
  Status status;
  static void Fields(auto& m, auto& v) { v(m.status); }
};

struct AbortRequest {
  ObjectId id;
  static void Fields(auto& m, auto& v) { v(m.id); }
};

struct AbortReply {
  Status status;
  static void Fields(auto& m, auto& v) { v(m.status); }
};

// ---- get / release -------------------------------------------------------

struct GetRequest {
  std::vector<ObjectId> ids;
  uint64_t timeout_ms = 0;  // 0: reply immediately with what exists
  // Force the RPC+pin path for remote objects even when the store runs
  // in mapped-remote-reads mode: the reply entries are pinned at their
  // home store and carry no generation validation burden. This is the
  // bottom of the mapped read path's fallback ladder (and the baseline
  // mode benchmarks compare against).
  bool pinned = false;
  // Set by the client's transparent generation-mismatch refetch so the
  // store can count mapped_fallbacks (plain pinned Gets don't).
  bool fallback = false;
  static void Fields(auto& m, auto& v) {
    v(m.ids, wire::Varint(m.timeout_ms), m.pinned, m.fallback);
  }
};

struct GetReplyEntry {
  ObjectId id;
  bool found = false;
  ObjectLocation location = ObjectLocation::kLocal;
  uint64_t offset = 0;  // pool-relative (local) or region-relative (remote)
  uint64_t data_size = 0;
  uint64_t metadata_size = 0;
  uint32_t home_node = 0;        // remote only
  uint32_t home_region = 0;      // remote only: fabric RegionId
  // Mapped data plane (zero-RPC remote reads): a mapped entry is NOT
  // pinned at its home store — the client copies the payload from the
  // mapped region and validates `generation` against slot `gen_slot` of
  // the home node's generation table (region `gen_region`, incarnation
  // `gen_epoch`) after every read; a mismatch falls back to a pinned
  // re-Get. All four fields are meaningful only when `mapped` is true.
  bool mapped = false;
  uint64_t generation = 0;
  uint64_t gen_slot = 0;
  uint32_t gen_region = UINT32_MAX;
  uint64_t gen_epoch = 0;
  static void Fields(auto& m, auto& v) {
    v(m.id, m.found, m.location, m.offset, m.data_size, m.metadata_size,
      m.home_node, m.home_region, m.mapped, m.generation, m.gen_slot,
      m.gen_region, m.gen_epoch);
  }
};

struct GetReply {
  Status status;
  std::vector<GetReplyEntry> entries;
  static void Fields(auto& m, auto& v) { v(m.status, m.entries); }
};

struct ReleaseRequest {
  ObjectId id;
  static void Fields(auto& m, auto& v) { v(m.id); }
};

struct ReleaseReply {
  Status status;
  static void Fields(auto& m, auto& v) { v(m.status); }
};

// ---- contains / delete / list / stats -------------------------------------

struct ContainsRequest {
  ObjectId id;
  static void Fields(auto& m, auto& v) { v(m.id); }
};

struct ContainsReply {
  bool contains = false;
  static void Fields(auto& m, auto& v) { v(m.contains); }
};

struct DeleteRequest {
  ObjectId id;
  static void Fields(auto& m, auto& v) { v(m.id); }
};

struct DeleteReply {
  Status status;
  static void Fields(auto& m, auto& v) { v(m.status); }
};

struct ObjectInfo {
  ObjectId id;
  uint64_t data_size = 0;
  uint64_t metadata_size = 0;
  bool sealed = false;
  bool spilled = false;  // sealed but resident in the disk spill tier
  uint32_t ref_count = 0;
  static void Fields(auto& m, auto& v) {
    v(m.id, m.data_size, m.metadata_size, m.sealed, m.spilled, m.ref_count);
  }
};

struct ListRequest {
  static void Fields(auto&, auto& v) { v(); }
};

struct ListReply {
  std::vector<ObjectInfo> objects;
  static void Fields(auto& m, auto& v) { v(m.objects); }
};

struct StatsRequest {
  static void Fields(auto&, auto& v) { v(); }
};

struct StoreStats {
  uint64_t capacity = 0;
  uint64_t bytes_in_use = 0;
  uint64_t objects_total = 0;
  uint64_t objects_sealed = 0;
  uint64_t evictions = 0;
  uint64_t remote_lookups = 0;
  uint64_t remote_lookup_hits = 0;
  // Disk spill tier (zero when StoreOptions::spill_dir is unset).
  uint64_t spilled_objects = 0;  // currently resident on disk
  uint64_t spilled_bytes = 0;
  uint64_t spills = 0;           // cumulative objects written to disk
  uint64_t spill_restores = 0;   // cumulative objects read back
  // Egress (non-blocking write-queue) counters, summed over shards.
  uint64_t frames_tx = 0;              // reply frames enqueued
  uint64_t frames_coalesced = 0;       // frames that shared a writev
  uint64_t writev_calls = 0;           // gather-write syscalls issued
  uint64_t bytes_tx = 0;               // reply bytes on the wire
  uint64_t egress_blocked_events = 0;  // flushes parked on EAGAIN
  // Peer health (cluster failure handling; zero without peers). States
  // count the dist layer's health machine: healthy / suspect / dead.
  uint64_t peers_total = 0;
  uint64_t peers_healthy = 0;
  uint64_t peers_suspect = 0;
  uint64_t peers_dead = 0;
  uint64_t peer_failed_rpcs = 0;   // cumulative failed peer calls
  uint64_t peer_reconnects = 0;    // channel redials that succeeded
  uint64_t peer_heartbeats = 0;    // Plasma.Ping calls sent
  // Mapped data plane (zero-RPC remote reads; all zero unless the store
  // has a generation table, see Store::SetGenerationTable).
  uint64_t mapped_reads = 0;       // remote Gets served as descriptors
  uint64_t mapped_bytes = 0;       // payload bytes those Gets exposed
  uint64_t mapped_fallbacks = 0;   // client refetches after a mismatch
  // k-way replication (zero when replication_factor is 1 and no client
  // passed the per-object replicate flag).
  uint64_t replicas_total = 0;     // remote copies of locally-owned objects
  uint64_t under_replicated = 0;   // objects below their desired copy count
  uint64_t reheal_copies = 0;      // copies re-created after peer deaths
  uint64_t reheal_bytes = 0;       // payload bytes those copies moved
  // Re-heal queue hygiene: requests coalesced because the node was
  // already queued, requests refused at the queue bound, and the
  // current queue depth.
  uint64_t reheal_deduped = 0;
  uint64_t reheal_dropped = 0;
  uint64_t reheal_queue_depth = 0;
  // End-to-end deadlines and hedged reads (gray-failure handling; see
  // docs/operations.md runbook).
  uint64_t deadline_exceeded = 0;   // ops that exhausted their budget
  uint64_t hedged_reads = 0;        // backup replica reads fired
  uint64_t hedge_wins = 0;          // hedges that answered first
  uint64_t hedge_budget_denied = 0;  // hedges refused by the global cap
  static void Fields(auto& m, auto& v) {
    v(m.capacity, m.bytes_in_use, m.objects_total, m.objects_sealed,
      m.evictions, m.remote_lookups, m.remote_lookup_hits,
      m.spilled_objects, m.spilled_bytes, m.spills, m.spill_restores,
      m.frames_tx, m.frames_coalesced, m.writev_calls, m.bytes_tx,
      m.egress_blocked_events, m.peers_total, m.peers_healthy,
      m.peers_suspect, m.peers_dead, m.peer_failed_rpcs,
      m.peer_reconnects, m.peer_heartbeats, m.mapped_reads,
      m.mapped_bytes, m.mapped_fallbacks, m.replicas_total,
      m.under_replicated, m.reheal_copies, m.reheal_bytes,
      m.reheal_deduped, m.reheal_dropped, m.reheal_queue_depth,
      m.deadline_exceeded, m.hedged_reads, m.hedge_wins,
      m.hedge_budget_denied);
  }
};

struct StatsReply {
  StoreStats stats;
  static void Fields(auto& m, auto& v) { v(m.stats); }
};

// GetStoreStats extension: one row per store shard. The sharded core
// runs N event-loop shards, each owning its own object table, eviction
// state, and allocator arena; this message exposes that state so load
// imbalance and eviction pressure are observable per shard
// (`mdos_cli stats` renders the rows).
struct ShardStatsEntry {
  uint32_t shard = 0;
  uint64_t clients = 0;          // connections homed on this shard
  uint64_t objects_total = 0;
  uint64_t objects_sealed = 0;
  uint64_t bytes_in_use = 0;
  uint64_t arena_capacity = 0;   // bytes of the pool carved to this shard
  uint64_t evictions = 0;
  uint64_t inflight_gets = 0;    // parked Gets awaiting a seal/deadline
  uint64_t spilled_objects = 0;  // objects in this shard's spill file
  uint64_t spilled_bytes = 0;
  uint64_t spill_restores = 0;   // cumulative restores on this shard
  // Egress counters for this shard's connections (see StoreStats).
  uint64_t frames_tx = 0;
  uint64_t frames_coalesced = 0;
  uint64_t writev_calls = 0;
  uint64_t bytes_tx = 0;
  uint64_t egress_blocked_events = 0;
  // Mapped data plane counters for Gets homed on this shard.
  uint64_t mapped_reads = 0;
  uint64_t mapped_bytes = 0;
  uint64_t mapped_fallbacks = 0;
  // Replication state of this shard's object table.
  uint64_t replicas_total = 0;
  uint64_t under_replicated = 0;
  static void Fields(auto& m, auto& v) {
    v(m.shard, m.clients, m.objects_total, m.objects_sealed,
      m.bytes_in_use, m.arena_capacity, m.evictions, m.inflight_gets,
      m.spilled_objects, m.spilled_bytes, m.spill_restores, m.frames_tx,
      m.frames_coalesced, m.writev_calls, m.bytes_tx,
      m.egress_blocked_events, m.mapped_reads, m.mapped_bytes,
      m.mapped_fallbacks, m.replicas_total, m.under_replicated);
  }
};

struct ShardStatsRequest {
  static void Fields(auto&, auto& v) { v(); }
};

struct ShardStatsReply {
  std::vector<ShardStatsEntry> shards;
  static void Fields(auto& m, auto& v) { v(m.shards); }
};

// Peer-health extension: one row per peer store this node is meshed
// with. `state` mirrors the dist layer's per-peer health machine
// (healthy → suspect → dead, see dist/remote_registry.h); the counters
// let `mdos_cli stats` show which peer is failing and how hard.
struct PeerStatsEntry {
  uint32_t node_id = 0;
  uint8_t state = 0;             // 0 healthy, 1 suspect, 2 dead
  uint64_t failure_streak = 0;   // consecutive failed calls right now
  uint64_t failed_rpcs = 0;      // cumulative failed calls to this peer
  uint64_t reconnects = 0;       // channel redials that succeeded
  uint64_t heartbeats = 0;       // Plasma.Ping calls sent to this peer
  int64_t ms_since_ok = -1;      // ms since the last successful call
  int64_t ewma_latency_us = -1;  // smoothed call latency; -1 = no sample
  static void Fields(auto& m, auto& v) {
    v(m.node_id, m.state, m.failure_streak, m.failed_rpcs, m.reconnects,
      m.heartbeats, m.ms_since_ok, m.ewma_latency_us);
  }
};

struct PeerStatsRequest {
  static void Fields(auto&, auto& v) { v(); }
};

struct PeerStatsReply {
  std::vector<PeerStatsEntry> peers;
  static void Fields(auto& m, auto& v) { v(m.peers); }
};

// ---- subscribe / notifications --------------------------------------------

// Sent on a dedicated connection that will only receive notifications
// from then on (matching upstream Plasma's notification socket).
struct SubscribeRequest {
  std::string subscriber_name;
  static void Fields(auto& m, auto& v) { v(m.subscriber_name); }
};

struct SubscribeReply {
  Status status;
  static void Fields(auto& m, auto& v) { v(m.status); }
};

// Pushed by the store whenever an object is sealed or removed.
struct Notification {
  ObjectId id;
  uint64_t data_size = 0;
  uint64_t metadata_size = 0;
  bool deleted = false;  // false: sealed; true: deleted or evicted
  static void Fields(auto& m, auto& v) {
    v(m.id, m.data_size, m.metadata_size, m.deleted);
  }
};

// ---- helpers ---------------------------------------------------------------

// Request-tagged framing: every Plasma IPC frame payload is
//   wire::MessageHeader (request_id) || message body.
// Requests carry a client-chosen id; the store echoes it into the reply,
// which lets one connection keep many requests in flight and lets replies
// complete out of order. Server pushes (notifications) use kNoRequestId.
inline constexpr uint64_t kNoRequestId = 0;

// Reads the request id off a tagged frame payload.
Result<uint64_t> PeekRequestId(const uint8_t* payload, size_t size);
Result<uint64_t> PeekRequestId(const std::vector<uint8_t>& payload);

// Receives one frame and checks its type; `request_id` (optional)
// receives the frame's tag.
Result<std::vector<uint8_t>> RecvExpect(int fd, MessageType expected,
                                        uint64_t* request_id = nullptr);

}  // namespace mdos::plasma

#include "net/frame.h"

namespace mdos::plasma {

// Encodes the request-tag header + `msg` into `w` (callers that keep a
// scratch Writer per connection Reset() it first and reuse its capacity).
template <typename Message>
void EncodeMessage(wire::Writer& w, uint64_t request_id,
                   const Message& msg) {
  wire::Encode(w, wire::MessageHeader{request_id});
  wire::Encode(w, msg);
}

// Deadline-stamping variant: `deadline_ms` is the sender's remaining
// end-to-end budget (0 = none) — see wire::MessageHeader.
template <typename Message>
void EncodeMessage(wire::Writer& w, uint64_t request_id,
                   uint64_t deadline_ms, const Message& msg) {
  wire::Encode(w, wire::MessageHeader{request_id, deadline_ms});
  wire::Encode(w, msg);
}

// Sends `msg` as one request-tagged frame of the given type (blocking;
// the store's event loops use the non-blocking TxQueue path instead).
template <typename Message>
Status SendMessage(int fd, MessageType type, uint64_t request_id,
                   const Message& msg) {
  wire::Writer w;
  EncodeMessage(w, request_id, msg);
  return net::SendFrame(fd, static_cast<uint32_t>(type), w.data(),
                        w.size());
}

// Decodes a tagged payload previously produced by SendMessage (skips the
// message header). The span form decodes straight out of a receive
// buffer (net::FrameView) without copying the payload first.
template <typename Message>
Result<Message> DecodeMessage(const uint8_t* payload, size_t size) {
  wire::Reader r(payload, size);
  auto header = wire::Decode<wire::MessageHeader>(r);
  if (!header.ok()) return header.status();
  return wire::Decode<Message>(r);
}

template <typename Message>
Result<Message> DecodeMessage(const std::vector<uint8_t>& payload) {
  return DecodeMessage<Message>(payload.data(), payload.size());
}

}  // namespace mdos::plasma
