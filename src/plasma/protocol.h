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

// ---- connect -------------------------------------------------------------

struct ConnectRequest {
  std::string client_name;
  void EncodeTo(wire::Writer& w) const;
  static Result<ConnectRequest> DecodeFrom(wire::Reader& r);
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
  void EncodeTo(wire::Writer& w) const;
  static Result<ConnectReply> DecodeFrom(wire::Reader& r);
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
  void EncodeTo(wire::Writer& w) const;
  static Result<CreateRequest> DecodeFrom(wire::Reader& r);
};

struct CreateReply {
  Status status;  // travels as (code, message)
  uint64_t offset = 0;  // pool-relative offset of the data section
  uint64_t data_size = 0;
  uint64_t metadata_size = 0;
  void EncodeTo(wire::Writer& w) const;
  static Result<CreateReply> DecodeFrom(wire::Reader& r);
};

struct SealRequest {
  ObjectId id;
  void EncodeTo(wire::Writer& w) const;
  static Result<SealRequest> DecodeFrom(wire::Reader& r);
};

struct SealReply {
  Status status;
  void EncodeTo(wire::Writer& w) const;
  static Result<SealReply> DecodeFrom(wire::Reader& r);
};

struct AbortRequest {
  ObjectId id;
  void EncodeTo(wire::Writer& w) const;
  static Result<AbortRequest> DecodeFrom(wire::Reader& r);
};

struct AbortReply {
  Status status;
  void EncodeTo(wire::Writer& w) const;
  static Result<AbortReply> DecodeFrom(wire::Reader& r);
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
  void EncodeTo(wire::Writer& w) const;
  static Result<GetRequest> DecodeFrom(wire::Reader& r);
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
  void EncodeTo(wire::Writer& w) const;
  static Result<GetReplyEntry> DecodeFrom(wire::Reader& r);
};

struct GetReply {
  Status status;
  std::vector<GetReplyEntry> entries;
  void EncodeTo(wire::Writer& w) const;
  static Result<GetReply> DecodeFrom(wire::Reader& r);
};

struct ReleaseRequest {
  ObjectId id;
  void EncodeTo(wire::Writer& w) const;
  static Result<ReleaseRequest> DecodeFrom(wire::Reader& r);
};

struct ReleaseReply {
  Status status;
  void EncodeTo(wire::Writer& w) const;
  static Result<ReleaseReply> DecodeFrom(wire::Reader& r);
};

// ---- contains / delete / list / stats -------------------------------------

struct ContainsRequest {
  ObjectId id;
  void EncodeTo(wire::Writer& w) const;
  static Result<ContainsRequest> DecodeFrom(wire::Reader& r);
};

struct ContainsReply {
  bool contains = false;
  void EncodeTo(wire::Writer& w) const;
  static Result<ContainsReply> DecodeFrom(wire::Reader& r);
};

struct DeleteRequest {
  ObjectId id;
  void EncodeTo(wire::Writer& w) const;
  static Result<DeleteRequest> DecodeFrom(wire::Reader& r);
};

struct DeleteReply {
  Status status;
  void EncodeTo(wire::Writer& w) const;
  static Result<DeleteReply> DecodeFrom(wire::Reader& r);
};

struct ObjectInfo {
  ObjectId id;
  uint64_t data_size = 0;
  uint64_t metadata_size = 0;
  bool sealed = false;
  bool spilled = false;  // sealed but resident in the disk spill tier
  uint32_t ref_count = 0;
  void EncodeTo(wire::Writer& w) const;
  static Result<ObjectInfo> DecodeFrom(wire::Reader& r);
};

struct ListRequest {
  void EncodeTo(wire::Writer& w) const;
  static Result<ListRequest> DecodeFrom(wire::Reader& r);
};

struct ListReply {
  std::vector<ObjectInfo> objects;
  void EncodeTo(wire::Writer& w) const;
  static Result<ListReply> DecodeFrom(wire::Reader& r);
};

struct StatsRequest {
  void EncodeTo(wire::Writer& w) const;
  static Result<StatsRequest> DecodeFrom(wire::Reader& r);
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
  void EncodeTo(wire::Writer& w) const;
  static Result<StoreStats> DecodeFrom(wire::Reader& r);
};

struct StatsReply {
  StoreStats stats;
  void EncodeTo(wire::Writer& w) const;
  static Result<StatsReply> DecodeFrom(wire::Reader& r);
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
  void EncodeTo(wire::Writer& w) const;
  static Result<ShardStatsEntry> DecodeFrom(wire::Reader& r);
};

struct ShardStatsRequest {
  void EncodeTo(wire::Writer& w) const;
  static Result<ShardStatsRequest> DecodeFrom(wire::Reader& r);
};

struct ShardStatsReply {
  std::vector<ShardStatsEntry> shards;
  void EncodeTo(wire::Writer& w) const;
  static Result<ShardStatsReply> DecodeFrom(wire::Reader& r);
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
  void EncodeTo(wire::Writer& w) const;
  static Result<PeerStatsEntry> DecodeFrom(wire::Reader& r);
};

struct PeerStatsRequest {
  void EncodeTo(wire::Writer& w) const;
  static Result<PeerStatsRequest> DecodeFrom(wire::Reader& r);
};

struct PeerStatsReply {
  std::vector<PeerStatsEntry> peers;
  void EncodeTo(wire::Writer& w) const;
  static Result<PeerStatsReply> DecodeFrom(wire::Reader& r);
};

// ---- subscribe / notifications --------------------------------------------

// Sent on a dedicated connection that will only receive notifications
// from then on (matching upstream Plasma's notification socket).
struct SubscribeRequest {
  std::string subscriber_name;
  void EncodeTo(wire::Writer& w) const;
  static Result<SubscribeRequest> DecodeFrom(wire::Reader& r);
};

struct SubscribeReply {
  Status status;
  void EncodeTo(wire::Writer& w) const;
  static Result<SubscribeReply> DecodeFrom(wire::Reader& r);
};

// Pushed by the store whenever an object is sealed or removed.
struct Notification {
  ObjectId id;
  uint64_t data_size = 0;
  uint64_t metadata_size = 0;
  bool deleted = false;  // false: sealed; true: deleted or evicted
  void EncodeTo(wire::Writer& w) const;
  static Result<Notification> DecodeFrom(wire::Reader& r);
};

// ---- helpers ---------------------------------------------------------------

// Request-tagged framing: every Plasma IPC frame payload is
//   wire::MessageHeader (request_id) || message body.
// Requests carry a client-chosen id; the store echoes it into the reply,
// which lets one connection keep many requests in flight and lets replies
// complete out of order. Server pushes (notifications) use kNoRequestId.
inline constexpr uint64_t kNoRequestId = 0;

// Encodes a Status as (u8 code, string message).
void EncodeStatus(wire::Writer& w, const Status& s);
// Decodes into *out; the returned Status reports decode failure only.
Status DecodeStatus(wire::Reader& r, Status* out);

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
  wire::MessageHeader{request_id}.EncodeTo(w);
  msg.EncodeTo(w);
}

// Deadline-stamping variant: `deadline_ms` is the sender's remaining
// end-to-end budget (0 = none) — see wire::MessageHeader.
template <typename Message>
void EncodeMessage(wire::Writer& w, uint64_t request_id,
                   uint64_t deadline_ms, const Message& msg) {
  wire::MessageHeader{request_id, deadline_ms}.EncodeTo(w);
  msg.EncodeTo(w);
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
  auto header = wire::MessageHeader::DecodeFrom(r);
  if (!header.ok()) return header.status();
  return Message::DecodeFrom(r);
}

template <typename Message>
Result<Message> DecodeMessage(const std::vector<uint8_t>& payload) {
  return DecodeMessage<Message>(payload.data(), payload.size());
}

}  // namespace mdos::plasma
