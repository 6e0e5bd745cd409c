// Fuzz harness: plasma IPC protocol and store-to-store RPC message
// decoders.
//
// Every message type's DecodeFrom runs against the same arbitrary
// payload — exactly what a store or client faces when a confused or
// hostile peer sends a frame whose type tag does not match its body.
// The peer RPC messages (dist/messages.h) decode the same bytes as an
// RPC payload, which carries no request-id tag. Decoders must return
// ProtocolError, never crash or over-allocate.
#include <cstddef>
#include <cstdint>

#include "dist/messages.h"
#include "plasma/protocol.h"
#include "wire/wire.h"

namespace {

template <typename Message>
void TryDecode(const uint8_t* data, size_t size) {
  (void)mdos::plasma::DecodeMessage<Message>(data, size);
}

template <typename Message>
void TryDecodePeer(const uint8_t* data, size_t size) {
  mdos::wire::Reader r(data, size);
  (void)Message::DecodeFrom(r);
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  using namespace mdos::plasma;
  TryDecode<ConnectRequest>(data, size);
  TryDecode<ConnectReply>(data, size);
  TryDecode<CreateRequest>(data, size);
  TryDecode<CreateReply>(data, size);
  TryDecode<SealRequest>(data, size);
  TryDecode<SealReply>(data, size);
  TryDecode<AbortRequest>(data, size);
  TryDecode<AbortReply>(data, size);
  TryDecode<GetRequest>(data, size);
  TryDecode<GetReply>(data, size);
  TryDecode<ReleaseRequest>(data, size);
  TryDecode<ReleaseReply>(data, size);
  TryDecode<ContainsRequest>(data, size);
  TryDecode<ContainsReply>(data, size);
  TryDecode<DeleteRequest>(data, size);
  TryDecode<DeleteReply>(data, size);
  TryDecode<ListRequest>(data, size);
  TryDecode<ListReply>(data, size);
  TryDecode<StatsRequest>(data, size);
  TryDecode<StatsReply>(data, size);
  TryDecode<ShardStatsRequest>(data, size);
  TryDecode<ShardStatsReply>(data, size);
  TryDecode<PeerStatsRequest>(data, size);
  TryDecode<PeerStatsReply>(data, size);
  TryDecode<SubscribeRequest>(data, size);
  TryDecode<SubscribeReply>(data, size);
  TryDecode<Notification>(data, size);

  // One request and one reply decoder per peer RPC method; Plasma.Unpin
  // decodes with Plasma.Pin's (UnpinRequest/UnpinReply are aliases).
  namespace dist = mdos::dist;
  TryDecodePeer<dist::HelloRequest>(data, size);
  TryDecodePeer<dist::HelloReply>(data, size);
  TryDecodePeer<dist::LookupRequest>(data, size);
  TryDecodePeer<dist::LookupReply>(data, size);
  TryDecodePeer<dist::ProbeRequest>(data, size);
  TryDecodePeer<dist::ProbeReply>(data, size);
  TryDecodePeer<dist::PinRequest>(data, size);
  TryDecodePeer<dist::PinReply>(data, size);
  TryDecodePeer<dist::PingRequest>(data, size);
  TryDecodePeer<dist::PingReply>(data, size);
  TryDecodePeer<dist::ReplicateRequest>(data, size);
  TryDecodePeer<dist::ReplicateReply>(data, size);
  TryDecodePeer<dist::ReplicaDropRequest>(data, size);
  TryDecodePeer<dist::ReplicaDropReply>(data, size);
  return 0;
}
