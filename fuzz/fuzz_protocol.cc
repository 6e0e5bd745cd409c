// Fuzz harness: every wire shape's decoder (tests/wire_shapes.h).
//
// Each shape decodes the same arbitrary payload — exactly what a store
// or client faces when a confused or hostile peer sends a frame whose
// type tag does not match its body. Plasma IPC messages decode behind
// the request-tag header, as the store and client read them; peer RPC
// messages, envelopes and nested fields decode the bytes bare. Decoders
// must return ProtocolError, never crash or over-allocate.
//
// A body that decodes is re-encoded, decoded again and re-encoded once
// more; the two encodings must match, or a field codec (Status, an enum,
// a varint) writes something other than what it read. Comparing two
// re-encodings, not the input, lets an overlong varint in the input pass.
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <vector>

#include "plasma/protocol.h"
#include "wire/wire.h"
#include "wire_shapes.h"

namespace {

using mdos::wire_shapes::EncodeBytes;

template <typename Message>
void CheckReencoding(const Message& first) {
  const std::vector<uint8_t> once = EncodeBytes(first);
  mdos::wire::Reader r(once.data(), once.size());
  auto second = mdos::wire::Decode<Message>(r);
  if (!second.ok() || EncodeBytes(*second) != once) std::abort();
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  mdos::wire_shapes::ForEachWireShape([data, size](const auto& shape) {
    using Message = mdos::wire_shapes::ShapeType<decltype(shape)>;
    if (shape.tagged) {
      auto decoded = mdos::plasma::DecodeMessage<Message>(data, size);
      if (decoded.ok()) CheckReencoding(*decoded);
    } else {
      mdos::wire::Reader r(data, size);
      auto decoded = mdos::wire::Decode<Message>(r);
      if (decoded.ok()) CheckReencoding(*decoded);
    }
  });
  return 0;
}
