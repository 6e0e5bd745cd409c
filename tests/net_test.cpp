// Tests for the net layer: sockets, framing, memfd sharing, fd passing,
// and the poller.
#include <gtest/gtest.h>

#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cstdlib>
#include <memory>
#include <vector>
#include <cstring>
#include <thread>

#include "common/rng.h"
#include "net/fd.h"
#include "net/frame.h"
#include "net/memfd.h"
#include "net/poller.h"
#include "net/socket.h"
#include "net/tx_queue.h"

namespace mdos::net {
namespace {

TEST(UniqueFdTest, ClosesOnDestruction) {
  int raw[2];
  ASSERT_EQ(::pipe(raw), 0);
  {
    UniqueFd a(raw[0]);
    UniqueFd b(raw[1]);
    EXPECT_TRUE(a.valid());
  }
  // Both ends should now be closed: write fails with EBADF.
  EXPECT_EQ(::write(raw[1], "x", 1), -1);
  EXPECT_EQ(errno, EBADF);
}

TEST(UniqueFdTest, MoveTransfersOwnership) {
  int raw[2];
  ASSERT_EQ(::pipe(raw), 0);
  UniqueFd a(raw[0]);
  UniqueFd b(raw[1]);
  UniqueFd moved = std::move(a);
  EXPECT_FALSE(a.valid());  // NOLINT use-after-move intended
  EXPECT_TRUE(moved.valid());
  EXPECT_EQ(moved.get(), raw[0]);
}

TEST(UniqueFdTest, ReleaseDetaches) {
  int raw[2];
  ASSERT_EQ(::pipe(raw), 0);
  UniqueFd b(raw[1]);
  {
    UniqueFd a(raw[0]);
    EXPECT_EQ(a.Release(), raw[0]);
  }
  // raw[0] still open: close it manually.
  EXPECT_EQ(::close(raw[0]), 0);
}

TEST(SocketTest, UdsRoundTrip) {
  std::string path = UniqueSocketPath("udstest");
  auto listener = UdsListen(path);
  ASSERT_TRUE(listener.ok()) << listener.status();

  std::thread server([&] {
    auto conn = Accept(listener->get());
    ASSERT_TRUE(conn.ok());
    char buf[5];
    ASSERT_TRUE(ReadAll(conn->get(), buf, 5).ok());
    EXPECT_EQ(std::string(buf, 5), "hello");
    ASSERT_TRUE(WriteAll(conn->get(), "world", 5).ok());
  });

  auto client = UdsConnect(path);
  ASSERT_TRUE(client.ok()) << client.status();
  ASSERT_TRUE(WriteAll(client->get(), "hello", 5).ok());
  char buf[5];
  ASSERT_TRUE(ReadAll(client->get(), buf, 5).ok());
  EXPECT_EQ(std::string(buf, 5), "world");
  server.join();
  ::unlink(path.c_str());
}

TEST(SocketTest, UdsConnectToMissingPathTimesOut) {
  auto client = UdsConnect("/tmp/mdos-definitely-missing.sock",
                           /*timeout_ms=*/50);
  EXPECT_FALSE(client.ok());
}

TEST(SocketTest, TcpEphemeralPortRoundTrip) {
  uint16_t port = 0;
  auto listener = TcpListen(0, &port);
  ASSERT_TRUE(listener.ok()) << listener.status();
  EXPECT_GT(port, 0);

  std::thread server([&] {
    auto conn = Accept(listener->get());
    ASSERT_TRUE(conn.ok());
    char buf[4];
    ASSERT_TRUE(ReadAll(conn->get(), buf, 4).ok());
    ASSERT_TRUE(WriteAll(conn->get(), buf, 4).ok());
  });

  auto client = TcpConnect("127.0.0.1", port);
  ASSERT_TRUE(client.ok()) << client.status();
  ASSERT_TRUE(WriteAll(client->get(), "ping", 4).ok());
  char buf[4];
  ASSERT_TRUE(ReadAll(client->get(), buf, 4).ok());
  EXPECT_EQ(std::string(buf, 4), "ping");
  server.join();
}

TEST(SocketTest, TcpConnectRefusedFailsQuickly) {
  // Port 1 on loopback is essentially never listening.
  auto client = TcpConnect("127.0.0.1", 1, /*timeout_ms=*/50);
  EXPECT_FALSE(client.ok());
}

TEST(SocketTest, ReadAllReportsCleanEof) {
  std::string path = UniqueSocketPath("eof");
  auto listener = UdsListen(path);
  ASSERT_TRUE(listener.ok());
  std::thread server([&] {
    auto conn = Accept(listener->get());
    // close immediately
  });
  auto client = UdsConnect(path);
  ASSERT_TRUE(client.ok());
  server.join();
  char buf[1];
  Status s = ReadAll(client->get(), buf, 1);
  EXPECT_EQ(s.code(), StatusCode::kNotConnected);
  ::unlink(path.c_str());
}

TEST(FrameTest, RoundTripVariousSizes) {
  std::string path = UniqueSocketPath("frame");
  auto listener = UdsListen(path);
  ASSERT_TRUE(listener.ok());

  const size_t sizes[] = {0, 1, 100, 4096, 1 << 20};
  std::thread server([&] {
    auto conn = Accept(listener->get());
    ASSERT_TRUE(conn.ok());
    for (size_t size : sizes) {
      auto frame = RecvFrame(conn->get());
      ASSERT_TRUE(frame.ok()) << frame.status();
      EXPECT_EQ(frame->type, 7u);
      EXPECT_EQ(frame->payload.size(), size);
      ASSERT_TRUE(SendFrame(conn->get(), 8, frame->payload).ok());
    }
  });

  auto client = UdsConnect(path);
  ASSERT_TRUE(client.ok());
  SplitMix64 rng(3);
  for (size_t size : sizes) {
    std::vector<uint8_t> payload(size);
    rng.Fill(payload.data(), payload.size());
    ASSERT_TRUE(SendFrame(client->get(), 7, payload).ok());
    auto echo = RecvFrame(client->get());
    ASSERT_TRUE(echo.ok());
    EXPECT_EQ(echo->type, 8u);
    EXPECT_EQ(echo->payload, payload);
  }
  server.join();
  ::unlink(path.c_str());
}

TEST(FrameTest, BadMagicRejected) {
  int sv[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
  UniqueFd a(sv[0]), b(sv[1]);
  uint32_t junk[4] = {0xBADC0DE, 1, 0, 0};
  ASSERT_TRUE(WriteAll(a.get(), junk, sizeof(junk)).ok());
  auto frame = RecvFrame(b.get());
  ASSERT_FALSE(frame.ok());
  EXPECT_EQ(frame.status().code(), StatusCode::kProtocolError);
}

TEST(FrameTest, CrcMismatchRejected) {
  int sv[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
  UniqueFd a(sv[0]), b(sv[1]);
  // magic, type, length=4, wrong crc, payload "abcd"
  struct {
    uint32_t magic = kFrameMagic;
    uint32_t type = 1;
    uint32_t length = 4;
    uint32_t crc = 0x12345678;
    char payload[4] = {'a', 'b', 'c', 'd'};
  } __attribute__((packed)) wire;
  ASSERT_TRUE(WriteAll(a.get(), &wire, sizeof(wire)).ok());
  auto frame = RecvFrame(b.get());
  ASSERT_FALSE(frame.ok());
  EXPECT_EQ(frame.status().code(), StatusCode::kProtocolError);
}

TEST(FrameTest, OversizePayloadLengthRejected) {
  int sv[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
  UniqueFd a(sv[0]), b(sv[1]);
  uint32_t hdr[4] = {kFrameMagic, 1, kMaxFramePayload + 1, 0};
  ASSERT_TRUE(WriteAll(a.get(), hdr, sizeof(hdr)).ok());
  auto frame = RecvFrame(b.get());
  ASSERT_FALSE(frame.ok());
}

TEST(FrameTest, SendRejectsTooLargePayload) {
  int sv[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
  UniqueFd a(sv[0]), b(sv[1]);
  std::vector<uint8_t> big(kMaxFramePayload + 1);
  EXPECT_EQ(SendFrame(a.get(), 1, big).code(), StatusCode::kInvalid);
}

TEST(MemfdTest, CreateAndWrite) {
  auto seg = MemfdSegment::Create("test-seg", 4096);
  ASSERT_TRUE(seg.ok()) << seg.status();
  EXPECT_EQ(seg->size(), 4096u);
  std::memset(seg->data(), 0x5A, 4096);
  EXPECT_EQ(seg->data()[4095], 0x5A);
}

TEST(MemfdTest, SharedMappingSeesWrites) {
  auto seg = MemfdSegment::Create("share-seg", 4096);
  ASSERT_TRUE(seg.ok());
  auto dup = seg->DupFd();
  ASSERT_TRUE(dup.ok());
  auto view = MemfdSegment::Map(std::move(dup).value(), 4096);
  ASSERT_TRUE(view.ok());
  seg->data()[100] = 42;
  EXPECT_EQ(view->data()[100], 42);  // same physical pages
  view->data()[200] = 24;
  EXPECT_EQ(seg->data()[200], 24);
}

TEST(MemfdTest, FdPassingAcrossSocket) {
  auto seg = MemfdSegment::Create("fdpass-seg", 4096);
  ASSERT_TRUE(seg.ok());
  seg->data()[0] = 77;

  int sv[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
  UniqueFd a(sv[0]), b(sv[1]);
  ASSERT_TRUE(SendFd(a.get(), seg->fd()).ok());
  auto received = RecvFd(b.get());
  ASSERT_TRUE(received.ok()) << received.status();
  auto view = MemfdSegment::Map(std::move(received).value(), 4096);
  ASSERT_TRUE(view.ok());
  EXPECT_EQ(view->data()[0], 77);
}

// Every PollerTest runs against a fresh epoll-backed Poller.
class PollerTest : public ::testing::Test {
 protected:
  std::unique_ptr<Poller> poller_ = std::make_unique<Poller>();
};

TEST_F(PollerTest, ReportsReadableFd) {
  int sv[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
  UniqueFd a(sv[0]), b(sv[1]);
  poller_->Add(b.get());
  ASSERT_TRUE(WriteAll(a.get(), "x", 1).ok());
  int seen = -1;
  uint32_t seen_events = 0;
  auto n = poller_->Wait(1000, [&](int fd, uint32_t events) {
    seen = fd;
    seen_events = events;
  });
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(*n, 1);
  EXPECT_EQ(seen, b.get());
  EXPECT_TRUE(seen_events & kPollerReadable);
  // Write interest is not armed: no writable report even though the
  // socket is writable.
  EXPECT_FALSE(seen_events & kPollerWritable);
}

TEST_F(PollerTest, TimesOutWithNoEvents) {
  auto n = poller_->Wait(10, [](int, uint32_t) {
    FAIL() << "no fd should be ready";
  });
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(*n, 0);
}

TEST_F(PollerTest, WakeupInterruptsWait) {
  std::atomic<bool> woke{false};
  std::thread waiter([&] {
    auto n = poller_->Wait(5000, [](int, uint32_t) {});
    ASSERT_TRUE(n.ok());
    woke.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  poller_->Wakeup();
  waiter.join();
  EXPECT_TRUE(woke.load());
}

TEST_F(PollerTest, RemoveStopsReporting) {
  int sv[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
  UniqueFd a(sv[0]), b(sv[1]);
  poller_->Add(b.get());
  poller_->Remove(b.get());
  ASSERT_TRUE(WriteAll(a.get(), "x", 1).ok());
  auto n = poller_->Wait(10, [](int, uint32_t) { FAIL(); });
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(*n, 0);
}

TEST_F(PollerTest, WriteInterestReportsWritableOnlyWhileArmed) {
  int sv[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
  UniqueFd a(sv[0]), b(sv[1]);
  poller_->Add(b.get());

  // Idle-writable socket, interest disarmed: timeout.
  auto n = poller_->Wait(10, [](int, uint32_t) { FAIL(); });
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(*n, 0);

  // Armed: the (writable) socket reports immediately — including under
  // epoll's edge triggering, because arming re-scans readiness.
  poller_->SetWriteInterest(b.get(), true);
  uint32_t seen_events = 0;
  n = poller_->Wait(1000,
                    [&](int, uint32_t events) { seen_events = events; });
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(*n, 1);
  EXPECT_TRUE(seen_events & kPollerWritable);

  // Disarmed again: back to silence.
  poller_->SetWriteInterest(b.get(), false);
  n = poller_->Wait(10, [](int, uint32_t) { FAIL(); });
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(*n, 0);
}

TEST_F(PollerTest, WriteInterestFiresAfterDrain) {
  int sv[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
  UniqueFd a(sv[0]), b(sv[1]);
  ASSERT_TRUE(SetNonBlocking(a.get()).ok());
  // Fill a's send buffer until EAGAIN — the egress-blocked state.
  std::vector<uint8_t> junk(64 * 1024, 0xAB);
  while (true) {
    ssize_t w = ::send(a.get(), junk.data(), junk.size(), MSG_DONTWAIT);
    if (w < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    ASSERT_GE(w, 0);
  }
  poller_->Add(a.get());
  poller_->SetWriteInterest(a.get(), true);
  auto n = poller_->Wait(10, [](int, uint32_t) {});
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(*n, 0) << "full socket must not report writable";

  // Drain the peer; the writability edge must now be delivered.
  std::vector<uint8_t> sink(1 << 20);
  while (::recv(b.get(), sink.data(), sink.size(), MSG_DONTWAIT) > 0) {
  }
  uint32_t seen_events = 0;
  n = poller_->Wait(1000,
                    [&](int, uint32_t events) { seen_events = events; });
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(*n, 1);
  EXPECT_TRUE(seen_events & kPollerWritable);
}

// ---- TxQueue ---------------------------------------------------------------

TEST(TxQueueTest, CoalescesFramesIntoOneGatherWrite) {
  int sv[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
  UniqueFd a(sv[0]), b(sv[1]);
  ASSERT_TRUE(SetNonBlocking(a.get()).ok());

  TxQueue tx;
  SplitMix64 rng(11);
  std::vector<std::vector<uint8_t>> payloads;
  for (int i = 0; i < 8; ++i) {
    std::vector<uint8_t> p(100 + 37 * i);
    rng.Fill(p.data(), p.size());
    payloads.push_back(p);
    ASSERT_TRUE(tx.Append(42 + i, std::move(p)).ok());
  }
  EXPECT_EQ(tx.pending_frames(), 8u);

  auto state = tx.Flush(a.get());
  ASSERT_TRUE(state.ok());
  EXPECT_EQ(*state, TxQueue::FlushState::kDrained);
  EXPECT_TRUE(tx.empty());
  EXPECT_EQ(tx.stats().writev_calls, 1u) << "8 frames, one syscall";
  EXPECT_EQ(tx.stats().frames_coalesced, 8u);
  EXPECT_EQ(tx.stats().egress_blocked_events, 0u);

  // The receiver must see 8 well-formed frames with intact payloads.
  for (int i = 0; i < 8; ++i) {
    auto frame = RecvFrame(b.get());
    ASSERT_TRUE(frame.ok()) << frame.status();
    EXPECT_EQ(frame->type, static_cast<uint32_t>(42 + i));
    EXPECT_EQ(frame->payload, payloads[i]);
  }
}

TEST(TxQueueTest, BlocksOnFullSocketAndResumesMidFrame) {
  int sv[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
  UniqueFd a(sv[0]), b(sv[1]);
  ASSERT_TRUE(SetNonBlocking(a.get()).ok());
  // Shrink the send buffer so a single large frame cannot fit.
  int small = 8 * 1024;
  ::setsockopt(a.get(), SOL_SOCKET, SO_SNDBUF, &small, sizeof(small));

  TxQueue tx;
  SplitMix64 rng(13);
  std::vector<uint8_t> big(512 * 1024);
  rng.Fill(big.data(), big.size());
  std::vector<uint8_t> copy = big;
  ASSERT_TRUE(tx.Append(7, std::move(copy)).ok());

  // Flush until blocked (no reader yet).
  auto state = tx.Flush(a.get());
  ASSERT_TRUE(state.ok());
  EXPECT_EQ(*state, TxQueue::FlushState::kBlocked);
  EXPECT_FALSE(tx.empty());
  EXPECT_GE(tx.stats().egress_blocked_events, 1u);

  // Drain concurrently and keep flushing: the residue must resume at the
  // exact byte offset and the receiver must see one intact frame.
  std::thread reader([&] {
    auto frame = RecvFrame(b.get());
    ASSERT_TRUE(frame.ok()) << frame.status();
    EXPECT_EQ(frame->type, 7u);
    EXPECT_EQ(frame->payload, big);
  });
  while (true) {
    auto s = tx.Flush(a.get());
    ASSERT_TRUE(s.ok());
    if (*s == TxQueue::FlushState::kDrained) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  reader.join();
  EXPECT_EQ(tx.stats().bytes_tx, big.size() + 16);
}

TEST(TxQueueTest, PeerCloseSurfacesAsError) {
  int sv[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
  UniqueFd a(sv[0]), b(sv[1]);
  ASSERT_TRUE(SetNonBlocking(a.get()).ok());
  b.Reset();  // peer gone
  TxQueue tx;
  ASSERT_TRUE(tx.Append(1, std::vector<uint8_t>{1, 2, 3}).ok());
  auto state = tx.Flush(a.get());
  EXPECT_FALSE(state.ok()) << "EPIPE must surface, not SIGPIPE";
}

TEST(TxQueueTest, RecyclesPayloadBuffers) {
  int sv[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
  UniqueFd a(sv[0]), b(sv[1]);
  ASSERT_TRUE(SetNonBlocking(a.get()).ok());
  TxQueue tx;
  ASSERT_TRUE(tx.Append(1, std::vector<uint8_t>(4096, 0x55)).ok());
  ASSERT_TRUE(tx.Flush(a.get()).ok());
  // The drained frame's buffer comes back with its capacity intact.
  std::vector<uint8_t> recycled = tx.AcquireBuffer();
  EXPECT_TRUE(recycled.empty());
  EXPECT_GE(recycled.capacity(), 4096u);
}

TEST(FrameViewTest, DecodesWithoutCopy) {
  // Encode a frame into a buffer via a socketpair round-trip.
  int sv[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
  UniqueFd a(sv[0]), b(sv[1]);
  std::vector<uint8_t> payload = {9, 8, 7, 6, 5};
  ASSERT_TRUE(SendFrame(a.get(), 3, payload).ok());
  uint8_t buf[256];
  ssize_t n = ::recv(b.get(), buf, sizeof(buf), 0);
  ASSERT_GT(n, 0);

  FrameView view;
  size_t consumed = 0;
  ASSERT_TRUE(DecodeFrameView(buf, static_cast<size_t>(n), &view,
                              &consumed)
                  .ok());
  ASSERT_EQ(consumed, 16u + payload.size());
  EXPECT_EQ(view.type, 3u);
  ASSERT_EQ(view.size, payload.size());
  // Zero-copy: the view aliases the receive buffer.
  EXPECT_EQ(view.payload, buf + 16);

  // Partial prefix decodes to "need more bytes".
  FrameView partial;
  ASSERT_TRUE(DecodeFrameView(buf, 10, &partial, &consumed).ok());
  EXPECT_EQ(consumed, 0u);
}

}  // namespace
}  // namespace mdos::net
