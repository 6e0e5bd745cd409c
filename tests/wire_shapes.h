// Every wire shape, listed once, and a filler that gives each field of a
// shape a distinct non-default value.
//
// protocol_test round-trips every shape, fuzz_protocol decodes arbitrary
// bytes as every shape, and make_fuzz_seeds writes one seed per shape;
// all three walk kWireShapes. A new field needs no edit here (the filler
// visits `Fields`); a new message adds one line.
#pragma once

#include <cstdint>
#include <deque>
#include <string>
#include <string_view>
#include <tuple>
#include <type_traits>
#include <vector>

#include "common/object_id.h"
#include "common/status.h"
#include "dist/messages.h"
#include "plasma/protocol.h"
#include "plasma/store.h"
#include "rpc/message.h"
#include "wire/wire.h"

namespace mdos::wire_shapes {

template <typename T>
struct WireShape {
  using Type = T;
  const char* name;  // seed file name and test trace label
  // Plasma IPC messages travel behind a wire::MessageHeader; RPC
  // payloads, envelopes and nested fields travel bare.
  bool tagged;
};

inline constexpr bool kTagged = true;
inline constexpr bool kBare = false;

inline constexpr std::tuple kWireShapes{
    WireShape<plasma::ConnectRequest>{"plasma.ConnectRequest", kTagged},
    WireShape<plasma::ConnectReply>{"plasma.ConnectReply", kTagged},
    WireShape<plasma::CreateRequest>{"plasma.CreateRequest", kTagged},
    WireShape<plasma::CreateReply>{"plasma.CreateReply", kTagged},
    WireShape<plasma::SealRequest>{"plasma.SealRequest", kTagged},
    WireShape<plasma::SealReply>{"plasma.SealReply", kTagged},
    WireShape<plasma::AbortRequest>{"plasma.AbortRequest", kTagged},
    WireShape<plasma::AbortReply>{"plasma.AbortReply", kTagged},
    WireShape<plasma::GetRequest>{"plasma.GetRequest", kTagged},
    WireShape<plasma::GetReplyEntry>{"plasma.GetReplyEntry", kBare},
    WireShape<plasma::GetReply>{"plasma.GetReply", kTagged},
    WireShape<plasma::ReleaseRequest>{"plasma.ReleaseRequest", kTagged},
    WireShape<plasma::ReleaseReply>{"plasma.ReleaseReply", kTagged},
    WireShape<plasma::ContainsRequest>{"plasma.ContainsRequest", kTagged},
    WireShape<plasma::ContainsReply>{"plasma.ContainsReply", kTagged},
    WireShape<plasma::DeleteRequest>{"plasma.DeleteRequest", kTagged},
    WireShape<plasma::DeleteReply>{"plasma.DeleteReply", kTagged},
    WireShape<plasma::ObjectInfo>{"plasma.ObjectInfo", kBare},
    WireShape<plasma::ListRequest>{"plasma.ListRequest", kTagged},
    WireShape<plasma::ListReply>{"plasma.ListReply", kTagged},
    WireShape<plasma::StatsRequest>{"plasma.StatsRequest", kTagged},
    WireShape<plasma::StoreStats>{"plasma.StoreStats", kBare},
    WireShape<plasma::StatsReply>{"plasma.StatsReply", kTagged},
    WireShape<plasma::ShardStatsEntry>{"plasma.ShardStatsEntry", kBare},
    WireShape<plasma::ShardStatsRequest>{"plasma.ShardStatsRequest", kTagged},
    WireShape<plasma::ShardStatsReply>{"plasma.ShardStatsReply", kTagged},
    WireShape<plasma::PeerStatsEntry>{"plasma.PeerStatsEntry", kBare},
    WireShape<plasma::PeerStatsRequest>{"plasma.PeerStatsRequest", kTagged},
    WireShape<plasma::PeerStatsReply>{"plasma.PeerStatsReply", kTagged},
    WireShape<plasma::SubscribeRequest>{"plasma.SubscribeRequest", kTagged},
    WireShape<plasma::SubscribeReply>{"plasma.SubscribeReply", kTagged},
    WireShape<plasma::Notification>{"plasma.Notification", kTagged},
    WireShape<plasma::RemoteObjectLocation>{"plasma.RemoteObjectLocation",
                                            kBare},
    WireShape<dist::HelloRequest>{"dist.HelloRequest", kBare},
    WireShape<dist::HelloReply>{"dist.HelloReply", kBare},
    WireShape<dist::LookupRequest>{"dist.LookupRequest", kBare},
    WireShape<dist::LookupEntry>{"dist.LookupEntry", kBare},
    WireShape<dist::LookupReply>{"dist.LookupReply", kBare},
    WireShape<dist::ProbeRequest>{"dist.ProbeRequest", kBare},
    WireShape<dist::ProbeReply>{"dist.ProbeReply", kBare},
    WireShape<dist::PinRequest>{"dist.PinRequest", kBare},
    WireShape<dist::PinReply>{"dist.PinReply", kBare},
    WireShape<dist::PingRequest>{"dist.PingRequest", kBare},
    WireShape<dist::PingReply>{"dist.PingReply", kBare},
    WireShape<dist::ReplicateRequest>{"dist.ReplicateRequest", kBare},
    WireShape<dist::ReplicateReply>{"dist.ReplicateReply", kBare},
    WireShape<dist::ReplicaDropRequest>{"dist.ReplicaDropRequest", kBare},
    WireShape<dist::ReplicaDropReply>{"dist.ReplicaDropReply", kBare},
    WireShape<wire::MessageHeader>{"wire.MessageHeader", kBare},
    WireShape<rpc::RpcRequestView>{"rpc.RpcRequestView", kBare},
    WireShape<rpc::RpcResponse>{"rpc.RpcResponse", kBare},
};

// The message type of a kWireShapes entry: ShapeType<decltype(shape)>.
template <typename Shape>
using ShapeType = typename std::remove_cvref_t<Shape>::Type;

// Calls `visit(shape)` for every entry of kWireShapes.
template <typename Visit>
void ForEachWireShape(Visit&& visit) {
  std::apply([&visit](const auto&... shape) { (visit(shape), ...); },
             kWireShapes);
}

// Visits `Fields` and gives every field a distinct non-default value:
// two-element repeated fields, fixed-width integers wider than a varint
// byte, varints of at least 2^35, enums at their WireMax and a non-OK
// Status. With `poison` = i, the i-th enum it meets (a Status code
// counts) is set one past its WireMax instead, so that encoding must not
// decode. String views point into the filler: it must outlive the
// message.
class Filler {
 public:
  explicit Filler(int poison = -1) : poison_(poison) {}

  template <wire::HasFields T>
  void Fill(T& m) {
    T::Fields(m, *this);
  }

  template <typename... Field>
  void operator()(Field&&... field) {
    (Set(field), ...);
  }

  // Enums (and Status codes) met so far: the valid `poison` values.
  int enum_sites() const { return enum_sites_; }

 private:
  template <wire::HasFields T>
  void Set(T& m) {
    Fill(m);
  }
  void Set(bool& v) { v = true; }
  void Set(uint8_t& v) { v = static_cast<uint8_t>(Next()); }
  void Set(uint32_t& v) { v = 0x01000000u + static_cast<uint32_t>(Next()); }
  void Set(uint64_t& v) { v = (uint64_t{1} << 56) + Next(); }
  void Set(int64_t& v) { v = -static_cast<int64_t>(Next()); }
  void Set(wire::Varint<uint64_t> v) {
    v.value = (uint64_t{1} << 35) + Next();
  }
  void Set(ObjectId& id) { id = ObjectId::FromName(Text()); }
  void Set(std::string& s) { s = Text(); }
  void Set(std::string_view& s) { s = strings_.emplace_back(Text()); }
  void Set(std::vector<uint8_t>& bytes) {
    bytes = {static_cast<uint8_t>(Next()), static_cast<uint8_t>(Next())};
  }
  template <wire::WireEnum E>
  void Set(E& e) {
    e = EnumValue(WireMax(E{}));
  }
  void Set(Status& s) {
    s = Status(EnumValue(WireMax(StatusCode{})), Text());
  }
  template <typename T>
  void Set(std::vector<T>& items) {
    items.resize(2);
    for (T& item : items) Set(item);
  }

  template <typename E>
  E EnumValue(E max) {
    if (enum_sites_++ != poison_) return max;
    return static_cast<E>(static_cast<uint8_t>(max) + 1);
  }
  uint64_t Next() { return ++counter_; }
  std::string Text() { return "field-" + std::to_string(Next()); }

  int poison_;
  int enum_sites_ = 0;
  uint64_t counter_ = 0;
  std::deque<std::string> strings_;
};

// `m`'s encoding as a byte vector.
template <typename T>
std::vector<uint8_t> EncodeBytes(const T& m) {
  wire::Writer w;
  wire::Encode(w, m);
  return w.TakeBuffer();
}

}  // namespace mdos::wire_shapes
