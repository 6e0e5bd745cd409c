#include "plasma/protocol.h"

#include "net/frame.h"

namespace mdos::plasma {

void EncodeStatus(wire::Writer& w, const Status& s) {
  w.PutU8(static_cast<uint8_t>(s.code()));
  w.PutString(s.message());
}

Status DecodeStatus(wire::Reader& r, Status* out) {
  MDOS_ASSIGN_OR_RETURN(uint8_t code, r.GetU8());
  if (code > static_cast<uint8_t>(StatusCode::kDeadlineExceeded)) {
    return Status::ProtocolError("bad status code");
  }
  MDOS_ASSIGN_OR_RETURN(std::string message, r.GetString());
  *out = Status(static_cast<StatusCode>(code), std::move(message));
  return Status::OK();
}

// ---- connect -------------------------------------------------------------

void ConnectRequest::EncodeTo(wire::Writer& w) const {
  w.PutString(client_name);
}
Result<ConnectRequest> ConnectRequest::DecodeFrom(wire::Reader& r) {
  ConnectRequest m;
  MDOS_ASSIGN_OR_RETURN(m.client_name, r.GetString());
  return m;
}

void ConnectReply::EncodeTo(wire::Writer& w) const {
  w.PutU32(node_id);
  w.PutU32(pool_region_id);
  w.PutU64(pool_size);
  w.PutU64(pool_slab_offset);
  w.PutString(store_name);
}
Result<ConnectReply> ConnectReply::DecodeFrom(wire::Reader& r) {
  ConnectReply m;
  MDOS_ASSIGN_OR_RETURN(m.node_id, r.GetU32());
  MDOS_ASSIGN_OR_RETURN(m.pool_region_id, r.GetU32());
  MDOS_ASSIGN_OR_RETURN(m.pool_size, r.GetU64());
  MDOS_ASSIGN_OR_RETURN(m.pool_slab_offset, r.GetU64());
  MDOS_ASSIGN_OR_RETURN(m.store_name, r.GetString());
  return m;
}

// ---- create / seal / abort ----------------------------------------------

void CreateRequest::EncodeTo(wire::Writer& w) const {
  w.PutObjectId(id);
  w.PutU64(data_size);
  w.PutU64(metadata_size);
  w.PutBool(replicate);
}
Result<CreateRequest> CreateRequest::DecodeFrom(wire::Reader& r) {
  CreateRequest m;
  MDOS_ASSIGN_OR_RETURN(m.id, r.GetObjectId());
  MDOS_ASSIGN_OR_RETURN(m.data_size, r.GetU64());
  MDOS_ASSIGN_OR_RETURN(m.metadata_size, r.GetU64());
  MDOS_ASSIGN_OR_RETURN(m.replicate, r.GetBool());
  return m;
}

void CreateReply::EncodeTo(wire::Writer& w) const {
  EncodeStatus(w, status);
  w.PutU64(offset);
  w.PutU64(data_size);
  w.PutU64(metadata_size);
}
Result<CreateReply> CreateReply::DecodeFrom(wire::Reader& r) {
  CreateReply m;
  MDOS_RETURN_IF_ERROR(DecodeStatus(r, &m.status));
  MDOS_ASSIGN_OR_RETURN(m.offset, r.GetU64());
  MDOS_ASSIGN_OR_RETURN(m.data_size, r.GetU64());
  MDOS_ASSIGN_OR_RETURN(m.metadata_size, r.GetU64());
  return m;
}

void SealRequest::EncodeTo(wire::Writer& w) const { w.PutObjectId(id); }
Result<SealRequest> SealRequest::DecodeFrom(wire::Reader& r) {
  SealRequest m;
  MDOS_ASSIGN_OR_RETURN(m.id, r.GetObjectId());
  return m;
}

void SealReply::EncodeTo(wire::Writer& w) const { EncodeStatus(w, status); }
Result<SealReply> SealReply::DecodeFrom(wire::Reader& r) {
  SealReply m;
  MDOS_RETURN_IF_ERROR(DecodeStatus(r, &m.status));
  return m;
}

void AbortRequest::EncodeTo(wire::Writer& w) const { w.PutObjectId(id); }
Result<AbortRequest> AbortRequest::DecodeFrom(wire::Reader& r) {
  AbortRequest m;
  MDOS_ASSIGN_OR_RETURN(m.id, r.GetObjectId());
  return m;
}

void AbortReply::EncodeTo(wire::Writer& w) const { EncodeStatus(w, status); }
Result<AbortReply> AbortReply::DecodeFrom(wire::Reader& r) {
  AbortReply m;
  MDOS_RETURN_IF_ERROR(DecodeStatus(r, &m.status));
  return m;
}

// ---- get / release -------------------------------------------------------

void GetRequest::EncodeTo(wire::Writer& w) const {
  w.PutRepeated(ids, [](wire::Writer& w2, const ObjectId& id) {
    w2.PutObjectId(id);
  });
  w.PutVarint(timeout_ms);
  w.PutBool(pinned);
  w.PutBool(fallback);
}
Result<GetRequest> GetRequest::DecodeFrom(wire::Reader& r) {
  GetRequest m;
  MDOS_ASSIGN_OR_RETURN(
      m.ids, (r.GetRepeated<ObjectId>(
                 [](wire::Reader& r2) { return r2.GetObjectId(); })));
  MDOS_ASSIGN_OR_RETURN(m.timeout_ms, r.GetVarint());
  MDOS_ASSIGN_OR_RETURN(m.pinned, r.GetBool());
  MDOS_ASSIGN_OR_RETURN(m.fallback, r.GetBool());
  return m;
}

void GetReplyEntry::EncodeTo(wire::Writer& w) const {
  w.PutObjectId(id);
  w.PutBool(found);
  w.PutU8(static_cast<uint8_t>(location));
  w.PutU64(offset);
  w.PutU64(data_size);
  w.PutU64(metadata_size);
  w.PutU32(home_node);
  w.PutU32(home_region);
  w.PutBool(mapped);
  w.PutU64(generation);
  w.PutU64(gen_slot);
  w.PutU32(gen_region);
  w.PutU64(gen_epoch);
}
Result<GetReplyEntry> GetReplyEntry::DecodeFrom(wire::Reader& r) {
  GetReplyEntry m;
  MDOS_ASSIGN_OR_RETURN(m.id, r.GetObjectId());
  MDOS_ASSIGN_OR_RETURN(m.found, r.GetBool());
  MDOS_ASSIGN_OR_RETURN(uint8_t loc, r.GetU8());
  if (loc > 1) return Status::ProtocolError("bad object location");
  m.location = static_cast<ObjectLocation>(loc);
  MDOS_ASSIGN_OR_RETURN(m.offset, r.GetU64());
  MDOS_ASSIGN_OR_RETURN(m.data_size, r.GetU64());
  MDOS_ASSIGN_OR_RETURN(m.metadata_size, r.GetU64());
  MDOS_ASSIGN_OR_RETURN(m.home_node, r.GetU32());
  MDOS_ASSIGN_OR_RETURN(m.home_region, r.GetU32());
  MDOS_ASSIGN_OR_RETURN(m.mapped, r.GetBool());
  MDOS_ASSIGN_OR_RETURN(m.generation, r.GetU64());
  MDOS_ASSIGN_OR_RETURN(m.gen_slot, r.GetU64());
  MDOS_ASSIGN_OR_RETURN(m.gen_region, r.GetU32());
  MDOS_ASSIGN_OR_RETURN(m.gen_epoch, r.GetU64());
  return m;
}

void GetReply::EncodeTo(wire::Writer& w) const {
  EncodeStatus(w, status);
  w.PutRepeated(entries, [](wire::Writer& w2, const GetReplyEntry& e) {
    e.EncodeTo(w2);
  });
}
Result<GetReply> GetReply::DecodeFrom(wire::Reader& r) {
  GetReply m;
  MDOS_RETURN_IF_ERROR(DecodeStatus(r, &m.status));
  MDOS_ASSIGN_OR_RETURN(m.entries,
                        (r.GetRepeated<GetReplyEntry>([](wire::Reader& r2) {
                          return GetReplyEntry::DecodeFrom(r2);
                        })));
  return m;
}

void ReleaseRequest::EncodeTo(wire::Writer& w) const { w.PutObjectId(id); }
Result<ReleaseRequest> ReleaseRequest::DecodeFrom(wire::Reader& r) {
  ReleaseRequest m;
  MDOS_ASSIGN_OR_RETURN(m.id, r.GetObjectId());
  return m;
}

void ReleaseReply::EncodeTo(wire::Writer& w) const {
  EncodeStatus(w, status);
}
Result<ReleaseReply> ReleaseReply::DecodeFrom(wire::Reader& r) {
  ReleaseReply m;
  MDOS_RETURN_IF_ERROR(DecodeStatus(r, &m.status));
  return m;
}

// ---- contains / delete / list / stats -------------------------------------

void ContainsRequest::EncodeTo(wire::Writer& w) const {
  w.PutObjectId(id);
}
Result<ContainsRequest> ContainsRequest::DecodeFrom(wire::Reader& r) {
  ContainsRequest m;
  MDOS_ASSIGN_OR_RETURN(m.id, r.GetObjectId());
  return m;
}

void ContainsReply::EncodeTo(wire::Writer& w) const {
  w.PutBool(contains);
}
Result<ContainsReply> ContainsReply::DecodeFrom(wire::Reader& r) {
  ContainsReply m;
  MDOS_ASSIGN_OR_RETURN(m.contains, r.GetBool());
  return m;
}

void DeleteRequest::EncodeTo(wire::Writer& w) const { w.PutObjectId(id); }
Result<DeleteRequest> DeleteRequest::DecodeFrom(wire::Reader& r) {
  DeleteRequest m;
  MDOS_ASSIGN_OR_RETURN(m.id, r.GetObjectId());
  return m;
}

void DeleteReply::EncodeTo(wire::Writer& w) const {
  EncodeStatus(w, status);
}
Result<DeleteReply> DeleteReply::DecodeFrom(wire::Reader& r) {
  DeleteReply m;
  MDOS_RETURN_IF_ERROR(DecodeStatus(r, &m.status));
  return m;
}

void ObjectInfo::EncodeTo(wire::Writer& w) const {
  w.PutObjectId(id);
  w.PutU64(data_size);
  w.PutU64(metadata_size);
  w.PutBool(sealed);
  w.PutBool(spilled);
  w.PutU32(ref_count);
}
Result<ObjectInfo> ObjectInfo::DecodeFrom(wire::Reader& r) {
  ObjectInfo m;
  MDOS_ASSIGN_OR_RETURN(m.id, r.GetObjectId());
  MDOS_ASSIGN_OR_RETURN(m.data_size, r.GetU64());
  MDOS_ASSIGN_OR_RETURN(m.metadata_size, r.GetU64());
  MDOS_ASSIGN_OR_RETURN(m.sealed, r.GetBool());
  MDOS_ASSIGN_OR_RETURN(m.spilled, r.GetBool());
  MDOS_ASSIGN_OR_RETURN(m.ref_count, r.GetU32());
  return m;
}

void ListRequest::EncodeTo(wire::Writer&) const {}
Result<ListRequest> ListRequest::DecodeFrom(wire::Reader&) {
  return ListRequest{};
}

void ListReply::EncodeTo(wire::Writer& w) const {
  w.PutRepeated(objects, [](wire::Writer& w2, const ObjectInfo& o) {
    o.EncodeTo(w2);
  });
}
Result<ListReply> ListReply::DecodeFrom(wire::Reader& r) {
  ListReply m;
  MDOS_ASSIGN_OR_RETURN(m.objects,
                        (r.GetRepeated<ObjectInfo>([](wire::Reader& r2) {
                          return ObjectInfo::DecodeFrom(r2);
                        })));
  return m;
}

void StatsRequest::EncodeTo(wire::Writer&) const {}
Result<StatsRequest> StatsRequest::DecodeFrom(wire::Reader&) {
  return StatsRequest{};
}

void StoreStats::EncodeTo(wire::Writer& w) const {
  w.PutU64(capacity);
  w.PutU64(bytes_in_use);
  w.PutU64(objects_total);
  w.PutU64(objects_sealed);
  w.PutU64(evictions);
  w.PutU64(remote_lookups);
  w.PutU64(remote_lookup_hits);
  w.PutU64(spilled_objects);
  w.PutU64(spilled_bytes);
  w.PutU64(spills);
  w.PutU64(spill_restores);
  w.PutU64(frames_tx);
  w.PutU64(frames_coalesced);
  w.PutU64(writev_calls);
  w.PutU64(bytes_tx);
  w.PutU64(egress_blocked_events);
  w.PutU64(peers_total);
  w.PutU64(peers_healthy);
  w.PutU64(peers_suspect);
  w.PutU64(peers_dead);
  w.PutU64(peer_failed_rpcs);
  w.PutU64(peer_reconnects);
  w.PutU64(peer_heartbeats);
  w.PutU64(mapped_reads);
  w.PutU64(mapped_bytes);
  w.PutU64(mapped_fallbacks);
  w.PutU64(replicas_total);
  w.PutU64(under_replicated);
  w.PutU64(reheal_copies);
  w.PutU64(reheal_bytes);
  w.PutU64(reheal_deduped);
  w.PutU64(reheal_dropped);
  w.PutU64(reheal_queue_depth);
  w.PutU64(deadline_exceeded);
  w.PutU64(hedged_reads);
  w.PutU64(hedge_wins);
  w.PutU64(hedge_budget_denied);
}
Result<StoreStats> StoreStats::DecodeFrom(wire::Reader& r) {
  StoreStats m;
  MDOS_ASSIGN_OR_RETURN(m.capacity, r.GetU64());
  MDOS_ASSIGN_OR_RETURN(m.bytes_in_use, r.GetU64());
  MDOS_ASSIGN_OR_RETURN(m.objects_total, r.GetU64());
  MDOS_ASSIGN_OR_RETURN(m.objects_sealed, r.GetU64());
  MDOS_ASSIGN_OR_RETURN(m.evictions, r.GetU64());
  MDOS_ASSIGN_OR_RETURN(m.remote_lookups, r.GetU64());
  MDOS_ASSIGN_OR_RETURN(m.remote_lookup_hits, r.GetU64());
  MDOS_ASSIGN_OR_RETURN(m.spilled_objects, r.GetU64());
  MDOS_ASSIGN_OR_RETURN(m.spilled_bytes, r.GetU64());
  MDOS_ASSIGN_OR_RETURN(m.spills, r.GetU64());
  MDOS_ASSIGN_OR_RETURN(m.spill_restores, r.GetU64());
  MDOS_ASSIGN_OR_RETURN(m.frames_tx, r.GetU64());
  MDOS_ASSIGN_OR_RETURN(m.frames_coalesced, r.GetU64());
  MDOS_ASSIGN_OR_RETURN(m.writev_calls, r.GetU64());
  MDOS_ASSIGN_OR_RETURN(m.bytes_tx, r.GetU64());
  MDOS_ASSIGN_OR_RETURN(m.egress_blocked_events, r.GetU64());
  MDOS_ASSIGN_OR_RETURN(m.peers_total, r.GetU64());
  MDOS_ASSIGN_OR_RETURN(m.peers_healthy, r.GetU64());
  MDOS_ASSIGN_OR_RETURN(m.peers_suspect, r.GetU64());
  MDOS_ASSIGN_OR_RETURN(m.peers_dead, r.GetU64());
  MDOS_ASSIGN_OR_RETURN(m.peer_failed_rpcs, r.GetU64());
  MDOS_ASSIGN_OR_RETURN(m.peer_reconnects, r.GetU64());
  MDOS_ASSIGN_OR_RETURN(m.peer_heartbeats, r.GetU64());
  MDOS_ASSIGN_OR_RETURN(m.mapped_reads, r.GetU64());
  MDOS_ASSIGN_OR_RETURN(m.mapped_bytes, r.GetU64());
  MDOS_ASSIGN_OR_RETURN(m.mapped_fallbacks, r.GetU64());
  MDOS_ASSIGN_OR_RETURN(m.replicas_total, r.GetU64());
  MDOS_ASSIGN_OR_RETURN(m.under_replicated, r.GetU64());
  MDOS_ASSIGN_OR_RETURN(m.reheal_copies, r.GetU64());
  MDOS_ASSIGN_OR_RETURN(m.reheal_bytes, r.GetU64());
  MDOS_ASSIGN_OR_RETURN(m.reheal_deduped, r.GetU64());
  MDOS_ASSIGN_OR_RETURN(m.reheal_dropped, r.GetU64());
  MDOS_ASSIGN_OR_RETURN(m.reheal_queue_depth, r.GetU64());
  MDOS_ASSIGN_OR_RETURN(m.deadline_exceeded, r.GetU64());
  MDOS_ASSIGN_OR_RETURN(m.hedged_reads, r.GetU64());
  MDOS_ASSIGN_OR_RETURN(m.hedge_wins, r.GetU64());
  MDOS_ASSIGN_OR_RETURN(m.hedge_budget_denied, r.GetU64());
  return m;
}

void StatsReply::EncodeTo(wire::Writer& w) const { stats.EncodeTo(w); }
Result<StatsReply> StatsReply::DecodeFrom(wire::Reader& r) {
  StatsReply m;
  MDOS_ASSIGN_OR_RETURN(m.stats, StoreStats::DecodeFrom(r));
  return m;
}

void ShardStatsEntry::EncodeTo(wire::Writer& w) const {
  w.PutU32(shard);
  w.PutU64(clients);
  w.PutU64(objects_total);
  w.PutU64(objects_sealed);
  w.PutU64(bytes_in_use);
  w.PutU64(arena_capacity);
  w.PutU64(evictions);
  w.PutU64(inflight_gets);
  w.PutU64(spilled_objects);
  w.PutU64(spilled_bytes);
  w.PutU64(spill_restores);
  w.PutU64(frames_tx);
  w.PutU64(frames_coalesced);
  w.PutU64(writev_calls);
  w.PutU64(bytes_tx);
  w.PutU64(egress_blocked_events);
  w.PutU64(mapped_reads);
  w.PutU64(mapped_bytes);
  w.PutU64(mapped_fallbacks);
  w.PutU64(replicas_total);
  w.PutU64(under_replicated);
}
Result<ShardStatsEntry> ShardStatsEntry::DecodeFrom(wire::Reader& r) {
  ShardStatsEntry m;
  MDOS_ASSIGN_OR_RETURN(m.shard, r.GetU32());
  MDOS_ASSIGN_OR_RETURN(m.clients, r.GetU64());
  MDOS_ASSIGN_OR_RETURN(m.objects_total, r.GetU64());
  MDOS_ASSIGN_OR_RETURN(m.objects_sealed, r.GetU64());
  MDOS_ASSIGN_OR_RETURN(m.bytes_in_use, r.GetU64());
  MDOS_ASSIGN_OR_RETURN(m.arena_capacity, r.GetU64());
  MDOS_ASSIGN_OR_RETURN(m.evictions, r.GetU64());
  MDOS_ASSIGN_OR_RETURN(m.inflight_gets, r.GetU64());
  MDOS_ASSIGN_OR_RETURN(m.spilled_objects, r.GetU64());
  MDOS_ASSIGN_OR_RETURN(m.spilled_bytes, r.GetU64());
  MDOS_ASSIGN_OR_RETURN(m.spill_restores, r.GetU64());
  MDOS_ASSIGN_OR_RETURN(m.frames_tx, r.GetU64());
  MDOS_ASSIGN_OR_RETURN(m.frames_coalesced, r.GetU64());
  MDOS_ASSIGN_OR_RETURN(m.writev_calls, r.GetU64());
  MDOS_ASSIGN_OR_RETURN(m.bytes_tx, r.GetU64());
  MDOS_ASSIGN_OR_RETURN(m.egress_blocked_events, r.GetU64());
  MDOS_ASSIGN_OR_RETURN(m.mapped_reads, r.GetU64());
  MDOS_ASSIGN_OR_RETURN(m.mapped_bytes, r.GetU64());
  MDOS_ASSIGN_OR_RETURN(m.mapped_fallbacks, r.GetU64());
  MDOS_ASSIGN_OR_RETURN(m.replicas_total, r.GetU64());
  MDOS_ASSIGN_OR_RETURN(m.under_replicated, r.GetU64());
  return m;
}

void ShardStatsRequest::EncodeTo(wire::Writer&) const {}
Result<ShardStatsRequest> ShardStatsRequest::DecodeFrom(wire::Reader&) {
  return ShardStatsRequest{};
}

void ShardStatsReply::EncodeTo(wire::Writer& w) const {
  w.PutRepeated(shards,
                [](wire::Writer& w2, const ShardStatsEntry& entry) {
                  entry.EncodeTo(w2);
                });
}
Result<ShardStatsReply> ShardStatsReply::DecodeFrom(wire::Reader& r) {
  ShardStatsReply m;
  MDOS_ASSIGN_OR_RETURN(
      m.shards,
      r.GetRepeated<ShardStatsEntry>([](wire::Reader& r2) {
        return ShardStatsEntry::DecodeFrom(r2);
      }));
  return m;
}

void PeerStatsEntry::EncodeTo(wire::Writer& w) const {
  w.PutU32(node_id);
  w.PutU8(state);
  w.PutU64(failure_streak);
  w.PutU64(failed_rpcs);
  w.PutU64(reconnects);
  w.PutU64(heartbeats);
  w.PutU64(static_cast<uint64_t>(ms_since_ok));
  w.PutU64(static_cast<uint64_t>(ewma_latency_us));
}
Result<PeerStatsEntry> PeerStatsEntry::DecodeFrom(wire::Reader& r) {
  PeerStatsEntry m;
  MDOS_ASSIGN_OR_RETURN(m.node_id, r.GetU32());
  MDOS_ASSIGN_OR_RETURN(m.state, r.GetU8());
  MDOS_ASSIGN_OR_RETURN(m.failure_streak, r.GetU64());
  MDOS_ASSIGN_OR_RETURN(m.failed_rpcs, r.GetU64());
  MDOS_ASSIGN_OR_RETURN(m.reconnects, r.GetU64());
  MDOS_ASSIGN_OR_RETURN(m.heartbeats, r.GetU64());
  MDOS_ASSIGN_OR_RETURN(uint64_t since, r.GetU64());
  m.ms_since_ok = static_cast<int64_t>(since);
  MDOS_ASSIGN_OR_RETURN(uint64_t ewma, r.GetU64());
  m.ewma_latency_us = static_cast<int64_t>(ewma);
  return m;
}

void PeerStatsRequest::EncodeTo(wire::Writer&) const {}
Result<PeerStatsRequest> PeerStatsRequest::DecodeFrom(wire::Reader&) {
  return PeerStatsRequest{};
}

void PeerStatsReply::EncodeTo(wire::Writer& w) const {
  w.PutRepeated(peers, [](wire::Writer& w2, const PeerStatsEntry& entry) {
    entry.EncodeTo(w2);
  });
}
Result<PeerStatsReply> PeerStatsReply::DecodeFrom(wire::Reader& r) {
  PeerStatsReply m;
  MDOS_ASSIGN_OR_RETURN(m.peers,
                        (r.GetRepeated<PeerStatsEntry>([](wire::Reader& r2) {
                          return PeerStatsEntry::DecodeFrom(r2);
                        })));
  return m;
}

void SubscribeRequest::EncodeTo(wire::Writer& w) const {
  w.PutString(subscriber_name);
}
Result<SubscribeRequest> SubscribeRequest::DecodeFrom(wire::Reader& r) {
  SubscribeRequest m;
  MDOS_ASSIGN_OR_RETURN(m.subscriber_name, r.GetString());
  return m;
}

void SubscribeReply::EncodeTo(wire::Writer& w) const {
  EncodeStatus(w, status);
}
Result<SubscribeReply> SubscribeReply::DecodeFrom(wire::Reader& r) {
  SubscribeReply m;
  MDOS_RETURN_IF_ERROR(DecodeStatus(r, &m.status));
  return m;
}

void Notification::EncodeTo(wire::Writer& w) const {
  w.PutObjectId(id);
  w.PutU64(data_size);
  w.PutU64(metadata_size);
  w.PutBool(deleted);
}
Result<Notification> Notification::DecodeFrom(wire::Reader& r) {
  Notification m;
  MDOS_ASSIGN_OR_RETURN(m.id, r.GetObjectId());
  MDOS_ASSIGN_OR_RETURN(m.data_size, r.GetU64());
  MDOS_ASSIGN_OR_RETURN(m.metadata_size, r.GetU64());
  MDOS_ASSIGN_OR_RETURN(m.deleted, r.GetBool());
  return m;
}

Result<uint64_t> PeekRequestId(const uint8_t* payload, size_t size) {
  wire::Reader r(payload, size);
  MDOS_ASSIGN_OR_RETURN(wire::MessageHeader header,
                        wire::MessageHeader::DecodeFrom(r));
  return header.request_id;
}

Result<uint64_t> PeekRequestId(const std::vector<uint8_t>& payload) {
  return PeekRequestId(payload.data(), payload.size());
}

Result<std::vector<uint8_t>> RecvExpect(int fd, MessageType expected,
                                        uint64_t* request_id) {
  MDOS_ASSIGN_OR_RETURN(net::Frame frame, net::RecvFrame(fd));
  if (frame.type != static_cast<uint32_t>(expected)) {
    return Status::ProtocolError(
        "unexpected message type " + std::to_string(frame.type) +
        " (expected " + std::to_string(static_cast<uint32_t>(expected)) +
        ")");
  }
  if (request_id != nullptr) {
    MDOS_ASSIGN_OR_RETURN(*request_id, PeekRequestId(frame.payload));
  }
  return std::move(frame.payload);
}

}  // namespace mdos::plasma
