#include "plasma/protocol.h"

#include "net/frame.h"

namespace mdos::plasma {

Result<uint64_t> PeekRequestId(const uint8_t* payload, size_t size) {
  wire::Reader r(payload, size);
  MDOS_ASSIGN_OR_RETURN(wire::MessageHeader header,
                        wire::Decode<wire::MessageHeader>(r));
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
