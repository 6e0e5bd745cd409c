// Round-trip tests for every wire shape (the Plasma IPC messages, the
// dist layer's RPC messages and the envelopes), plus the frame decoder
// and wire-hardening regressions.
#include <gtest/gtest.h>

#include <cstring>

#include "common/crc32.h"
#include "dist/messages.h"
#include "net/frame.h"
#include "plasma/protocol.h"
#include "wire_shapes.h"

namespace mdos::plasma {
namespace {

using wire_shapes::EncodeBytes;
using wire_shapes::Filler;

// Every wire shape, each field filled with a distinct non-default value:
// the decoder consumes every byte, re-encoding what it decoded gives the
// same bytes, and every enum (and Status code) refuses WireMax + 1.
TEST(WireShapesTest, EveryShapeRoundTripsAndBoundsItsEnums) {
  wire_shapes::ForEachWireShape([](const auto& shape) {
    using T = wire_shapes::ShapeType<decltype(shape)>;
    SCOPED_TRACE(shape.name);
    Filler filler;
    T m{};
    filler.Fill(m);
    const std::vector<uint8_t> bytes = EncodeBytes(m);
    wire::Reader r(bytes.data(), bytes.size());
    auto decoded = wire::Decode<T>(r);
    ASSERT_TRUE(decoded.ok()) << decoded.status();
    EXPECT_TRUE(r.AtEnd()) << r.remaining() << " bytes left after decode";
    EXPECT_EQ(EncodeBytes(*decoded), bytes);

    for (int site = 0; site < filler.enum_sites(); ++site) {
      Filler poisoned(site);
      T bad{};
      poisoned.Fill(bad);
      const std::vector<uint8_t> bad_bytes = EncodeBytes(bad);
      wire::Reader bad_reader(bad_bytes.data(), bad_bytes.size());
      EXPECT_FALSE(wire::Decode<T>(bad_reader).ok()) << "enum " << site;
    }
  });
}

TEST(ProtocolTest, CorruptGetReplyLocationRejected) {
  // A complete entry whose only fault is the location tag.
  GetReplyEntry entry;
  entry.id = ObjectId::FromName("x");
  wire::Writer w;
  wire::Encode(w, entry);
  std::vector<uint8_t> bytes = w.TakeBuffer();
  bytes[ObjectId::kSize + 1] = 9;  // after id and found: the location tag
  wire::Reader r(bytes.data(), bytes.size());
  EXPECT_FALSE(wire::Decode<GetReplyEntry>(r).ok());
  bytes[ObjectId::kSize + 1] = 1;  // kRemote decodes
  wire::Reader ok(bytes.data(), bytes.size());
  EXPECT_TRUE(wire::Decode<GetReplyEntry>(ok).ok());
}

TEST(ProtocolTest, TruncatedMessageRejected) {
  CreateRequest req;
  req.id = ObjectId::FromName("x");
  wire::Writer w;
  wire::Encode(w, req);
  wire::Reader r(w.data(), w.size() - 4);
  EXPECT_FALSE(wire::Decode<CreateRequest>(r).ok());
}

// ---- malformed frame / wire regressions ------------------------------------
//
// The frame decoder is the first code that touches bytes off a socket;
// these pin down its behaviour on each hostile-input class (mirrored in
// the fuzz corpus under fuzz/corpus/fuzz_frame).

// Encodes one valid frame: header (magic, type, length, crc) || payload.
std::vector<uint8_t> EncodeFrameBytes(uint32_t type,
                                      const std::vector<uint8_t>& payload) {
  net::FrameHeader hdr;
  hdr.type = type;
  hdr.length = static_cast<uint32_t>(payload.size());
  hdr.crc = Crc32(payload.data(), payload.size());
  std::vector<uint8_t> out(sizeof(hdr) + payload.size());
  std::memcpy(out.data(), &hdr, sizeof(hdr));
  // An empty payload's data() may be null, which memcpy must not see.
  if (!payload.empty()) {
    std::memcpy(out.data() + sizeof(hdr), payload.data(), payload.size());
  }
  return out;
}

TEST(FrameDecodeTest, DisconnectRequestIsBareFrame) {
  // kDisconnectRequest carries no payload struct: the frame header alone
  // is the whole message, and the store drops the client without
  // decoding anything further. Pin the wire shape so a payload is never
  // accidentally added on one side only.
  auto bytes = EncodeFrameBytes(
      static_cast<uint32_t>(MessageType::kDisconnectRequest), {});
  net::FrameView view;
  size_t consumed = 0;
  ASSERT_TRUE(
      net::DecodeFrameView(bytes.data(), bytes.size(), &view, &consumed).ok());
  EXPECT_EQ(consumed, bytes.size());
  EXPECT_EQ(static_cast<MessageType>(view.type),
            MessageType::kDisconnectRequest);
  EXPECT_EQ(view.size, 0u);
}

TEST(FrameDecodeTest, TruncatedHeaderDefersWithoutConsuming) {
  auto bytes = EncodeFrameBytes(7, {1, 2, 3});
  for (size_t cut = 0; cut < sizeof(net::FrameHeader); ++cut) {
    net::FrameView view;
    size_t consumed = 99;
    ASSERT_TRUE(
        net::DecodeFrameView(bytes.data(), cut, &view, &consumed).ok());
    EXPECT_EQ(consumed, 0u) << "partial header at " << cut;
  }
}

TEST(FrameDecodeTest, LengthPastBufferDefersWithoutConsuming) {
  // Valid header naming more payload than the buffer holds: the decoder
  // must wait for more bytes, not read past the end.
  auto bytes = EncodeFrameBytes(7, std::vector<uint8_t>(100, 0xAB));
  net::FrameView view;
  size_t consumed = 99;
  ASSERT_TRUE(
      net::DecodeFrameView(bytes.data(), bytes.size() - 1, &view, &consumed)
          .ok());
  EXPECT_EQ(consumed, 0u);
}

TEST(FrameDecodeTest, HostileLengthRejected) {
  // Length fields past the 64 MiB cap — including UINT32_MAX, which
  // would overflow `sizeof(hdr) + length` on a 32-bit size_t — must be
  // rejected outright, never treated as a partial frame.
  for (uint32_t length : {net::kMaxFramePayload + 1, UINT32_MAX}) {
    net::FrameHeader hdr;
    hdr.type = 7;
    hdr.length = length;
    std::vector<uint8_t> bytes(sizeof(hdr), 0);
    std::memcpy(bytes.data(), &hdr, sizeof(hdr));
    net::FrameView view;
    size_t consumed = 99;
    EXPECT_FALSE(
        net::DecodeFrameView(bytes.data(), bytes.size(), &view, &consumed)
            .ok())
        << "length " << length;
  }
}

TEST(FrameDecodeTest, ValidHeaderCorruptPayloadRejected) {
  auto bytes = EncodeFrameBytes(7, {1, 2, 3, 4});
  bytes.back() ^= 0xFF;  // header stays intact; payload CRC must catch it
  net::FrameView view;
  size_t consumed = 99;
  EXPECT_FALSE(
      net::DecodeFrameView(bytes.data(), bytes.size(), &view, &consumed)
          .ok());
}

TEST(WireHardeningTest, RepeatedCountBeyondBufferFailsWithoutOverReserve) {
  // A 6-byte message naming 2^24 elements: decode must fail on the first
  // missing element. The reserve clamp keeps the attempted allocation
  // bounded by the buffer size (the unclamped reserve was a
  // memory-amplification primitive — ~128 MiB for these 6 bytes).
  wire::Writer w;
  w.PutVarint(1u << 24);
  wire::Reader r(w.data(), w.size());
  auto decoded = r.GetRepeated<uint64_t>(
      [](wire::Reader& rr) { return rr.GetVarint(); });
  EXPECT_FALSE(decoded.ok());
}

TEST(WireHardeningTest, PeekRequestIdOnShortPayloadFails) {
  const uint8_t bytes[] = {1, 2, 3};
  EXPECT_FALSE(PeekRequestId(bytes, sizeof(bytes)).ok());
  EXPECT_FALSE(PeekRequestId(bytes, 0).ok());
}

}  // namespace
}  // namespace mdos::plasma

namespace mdos::dist {
namespace {

// A replicate request names where the bytes are, not the bytes: source()
// turns the sender and region into the location the target pulls from.
TEST(DistMessagesTest, ReplicateCarriesTheSourceLocation) {
  ReplicateRequest req;
  req.id = ObjectId::FromName("replica");
  req.from_node = 3;
  req.region = 7;
  req.offset = (1ull << 33) + 64;
  req.data_size = 1ull << 32;
  req.metadata_size = 9;
  wire::Writer w;
  wire::Encode(w, req);
  wire::Reader r(w.data(), w.size());
  auto d = wire::Decode<ReplicateRequest>(r);
  ASSERT_TRUE(d.ok()) << d.status();
  plasma::RemoteObjectLocation source = d->source();
  EXPECT_EQ(source.home_node, 3u);
  EXPECT_EQ(source.home_region, 7u);
  EXPECT_EQ(source.offset, req.offset);
  EXPECT_EQ(source.data_size, req.data_size);
  EXPECT_EQ(source.metadata_size, 9u);
}

}  // namespace
}  // namespace mdos::dist
