// RPC wire messages.
//
// The paper interconnects Plasma stores with gRPC configured in
// synchronous unary mode (§IV-A2). This module defines the equivalent
// on-the-wire representation for our from-scratch RPC framework:
//
//   request  := { call_id: u64, method: string, deadline_ms: varint,
//                 payload: bytes }
//   response := { call_id: u64, code: u8, error: string, payload: bytes }
//
// Both travel as net::Frame payloads with frame types kRequestFrame /
// kResponseFrame. A channel pipelines requests on one connection, and
// the response's call_id names the request it answers; a response whose
// call_id matches no pending call (its caller's deadline ran out) is
// discarded.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "wire/wire.h"

namespace mdos::rpc {

inline constexpr uint32_t kRequestFrame = 0x52504351;   // "RPCQ"
inline constexpr uint32_t kResponseFrame = 0x52504352;  // "RPCR"

// Request envelope: call_id, method, and deadline are decoded but the
// payload is left in place as a view into the frame buffer. The server
// uses this to shed expired work *before* paying for the payload copy,
// and only materializes the bytes for requests it will actually serve.
// The view borrows the frame buffer — it must not outlive it.
struct RpcRequestView {
  uint64_t call_id = 0;
  std::string_view method;
  uint64_t deadline_ms = 0;  // 0 = no deadline
  std::string_view payload;

  static void Fields(auto& m, auto& v) {
    v(m.call_id, m.method, wire::Varint(m.deadline_ms), m.payload);
  }
};

// Encodes a request envelope straight from its parts (no payload copy
// beyond the one into `w`).
inline void EncodeRequest(wire::Writer& w, uint64_t call_id,
                          std::string_view method, uint64_t deadline_ms,
                          const std::vector<uint8_t>& payload) {
  wire::Encode(w, RpcRequestView{
                      call_id, method, deadline_ms,
                      std::string_view(
                          reinterpret_cast<const char*>(payload.data()),
                          payload.size())});
}

struct RpcResponse {
  uint64_t call_id = 0;
  StatusCode code = StatusCode::kOk;
  std::string error;
  std::vector<uint8_t> payload;

  static void Fields(auto& m, auto& v) {
    v(m.call_id, m.code, m.error, m.payload);
  }

  Status ToStatus() const {
    if (code == StatusCode::kOk) return Status::OK();
    return Status(code, error);
  }
};

}  // namespace mdos::rpc
