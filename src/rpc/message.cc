#include "rpc/message.h"

namespace mdos::rpc {

void EncodeRequest(wire::Writer& w, uint64_t call_id, std::string_view method,
                   uint64_t deadline_ms, const std::vector<uint8_t>& payload) {
  w.PutU64(call_id);
  w.PutString(method);
  w.PutVarint(deadline_ms);
  w.PutBytes(std::string_view(
      reinterpret_cast<const char*>(payload.data()), payload.size()));
}

void RpcRequest::EncodeTo(wire::Writer& w) const {
  EncodeRequest(w, call_id, method, deadline_ms, payload);
}

Result<RpcRequest> RpcRequest::DecodeFrom(wire::Reader& r) {
  RpcRequest req;
  MDOS_ASSIGN_OR_RETURN(req.call_id, r.GetU64());
  MDOS_ASSIGN_OR_RETURN(req.method, r.GetString());
  MDOS_ASSIGN_OR_RETURN(req.deadline_ms, r.GetVarint());
  MDOS_ASSIGN_OR_RETURN(std::string_view payload, r.GetBytes());
  req.payload.assign(payload.begin(), payload.end());
  return req;
}

Result<RpcRequestView> RpcRequestView::DecodeFrom(wire::Reader& r) {
  RpcRequestView view;
  MDOS_ASSIGN_OR_RETURN(view.call_id, r.GetU64());
  MDOS_ASSIGN_OR_RETURN(view.method, r.GetBytes());
  MDOS_ASSIGN_OR_RETURN(view.deadline_ms, r.GetVarint());
  MDOS_ASSIGN_OR_RETURN(view.payload, r.GetBytes());
  return view;
}

void RpcResponse::EncodeTo(wire::Writer& w) const {
  w.PutU64(call_id);
  w.PutU8(static_cast<uint8_t>(code));
  w.PutString(error);
  w.PutBytes(std::string_view(
      reinterpret_cast<const char*>(payload.data()), payload.size()));
}

Result<RpcResponse> RpcResponse::DecodeFrom(wire::Reader& r) {
  RpcResponse resp;
  MDOS_ASSIGN_OR_RETURN(resp.call_id, r.GetU64());
  MDOS_ASSIGN_OR_RETURN(uint8_t code, r.GetU8());
  if (code > static_cast<uint8_t>(StatusCode::kDeadlineExceeded)) {
    return Status::ProtocolError("rpc: bad status code");
  }
  resp.code = static_cast<StatusCode>(code);
  MDOS_ASSIGN_OR_RETURN(resp.error, r.GetString());
  MDOS_ASSIGN_OR_RETURN(std::string_view payload, r.GetBytes());
  resp.payload.assign(payload.begin(), payload.end());
  return resp;
}

}  // namespace mdos::rpc
