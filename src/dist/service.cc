#include "dist/service.h"

#include "dist/messages.h"

namespace mdos::dist {

namespace {

template <typename ReplyT>
std::vector<uint8_t> EncodeReply(const ReplyT& reply) {
  wire::Writer w;
  wire::Encode(w, reply);
  // Move the encode buffer out instead of copying it: the RPC server
  // appends it to the connection's egress queue as-is.
  return w.TakeBuffer();
}

template <typename RequestT>
Result<RequestT> DecodeRequest(const std::vector<uint8_t>& payload) {
  wire::Reader r(payload.data(), payload.size());
  return wire::Decode<RequestT>(r);
}

}  // namespace

void StoreService::RegisterWith(rpc::RpcServer& server) {
  plasma::Store* store = store_;

  server.RegisterHandler(
      kMethodHello,
      [store](const std::vector<uint8_t>& payload)
          -> Result<std::vector<uint8_t>> {
        MDOS_ASSIGN_OR_RETURN(HelloRequest request,
                              DecodeRequest<HelloRequest>(payload));
        (void)request;  // the caller's node id is not needed yet
        HelloReply reply;
        reply.node_id = store->node_id();
        reply.pool_region = store->pool_region();
        reply.index_region = store->index_region();
        reply.gen_region = store->gen_region();
        reply.store_name = store->name();
        return EncodeReply(reply);
      });

  server.RegisterHandler(
      kMethodLookup,
      [store](const std::vector<uint8_t>& payload)
          -> Result<std::vector<uint8_t>> {
        MDOS_ASSIGN_OR_RETURN(LookupRequest request,
                              DecodeRequest<LookupRequest>(payload));
        LookupReply reply;
        reply.entries.reserve(request.ids.size());
        // Batched, shard-aware lookup: the store groups the ids by
        // owning shard and takes each shard mutex once, instead of the
        // RPC thread paying one (formerly global) lock per id.
        auto locations = store->LookupManyForPeer(request.ids);
        for (size_t i = 0; i < request.ids.size(); ++i) {
          LookupEntry entry;
          entry.id = request.ids[i];
          if (locations[i].has_value()) {
            entry.found = true;
            entry.location = *locations[i];
          }
          reply.entries.push_back(entry);
        }
        return EncodeReply(reply);
      });

  server.RegisterHandler(
      kMethodProbe,
      [store](const std::vector<uint8_t>& payload)
          -> Result<std::vector<uint8_t>> {
        MDOS_ASSIGN_OR_RETURN(ProbeRequest request,
                              DecodeRequest<ProbeRequest>(payload));
        ProbeReply reply;
        reply.exists = store->ContainsId(request.id);
        return EncodeReply(reply);
      });

  server.RegisterHandler(
      kMethodPin,
      [store](const std::vector<uint8_t>& payload)
          -> Result<std::vector<uint8_t>> {
        MDOS_ASSIGN_OR_RETURN(PinRequest request,
                              DecodeRequest<PinRequest>(payload));
        PinReply reply;
        reply.status = store->PinForPeer(request.id, request.peer_node,
                                         request.location());
        return EncodeReply(reply);
      });

  server.RegisterHandler(
      kMethodUnpin,
      [store](const std::vector<uint8_t>& payload)
          -> Result<std::vector<uint8_t>> {
        MDOS_ASSIGN_OR_RETURN(UnpinRequest request,
                              DecodeRequest<UnpinRequest>(payload));
        UnpinReply reply;
        reply.status = store->UnpinForPeer(request.id, request.peer_node);
        return EncodeReply(reply);
      });

  server.RegisterHandler(
      kMethodPing,
      [store](const std::vector<uint8_t>& payload)
          -> Result<std::vector<uint8_t>> {
        MDOS_ASSIGN_OR_RETURN(PingRequest request,
                              DecodeRequest<PingRequest>(payload));
        (void)request;  // liveness only; the sender's id is not needed
        PingReply reply;
        reply.node_id = store->node_id();
        return EncodeReply(reply);
      });

  server.RegisterHandler(
      kMethodReplicate,
      [store](const std::vector<uint8_t>& payload)
          -> Result<std::vector<uint8_t>> {
        MDOS_ASSIGN_OR_RETURN(ReplicateRequest request,
                              DecodeRequest<ReplicateRequest>(payload));
        // The pull runs here, on the serve thread: it stalls this thread
        // for the modelled fabric read and any injected link delay, as
        // every fabric load stalls the thread that issues it.
        ReplicateReply reply;
        reply.status = store->AcceptReplica(
            request.id, request.source(), request.crc, request.origin_node,
            request.desired_copies, request.copy_nodes);
        return EncodeReply(reply);
      });

  server.RegisterHandler(
      kMethodReplicaDrop,
      [store](const std::vector<uint8_t>& payload)
          -> Result<std::vector<uint8_t>> {
        MDOS_ASSIGN_OR_RETURN(ReplicaDropRequest request,
                              DecodeRequest<ReplicaDropRequest>(payload));
        ReplicaDropReply reply;
        reply.status =
            store->DropReplicaLocal(request.id, request.from_node);
        return EncodeReply(reply);
      });
}

}  // namespace mdos::dist
