// Tests for the unary RPC framework (the gRPC stand-in): calls, errors,
// deadlines, and pipelining many calls over one channel.
#include <gtest/gtest.h>
#include <sys/socket.h>

#include <atomic>
#include <thread>

#include "common/clock.h"
#include "net/socket.h"
#include "rpc/channel.h"
#include "rpc/message.h"
#include "rpc/server.h"

namespace mdos::rpc {
namespace {

struct EchoRequest {
  std::string text;
  static void Fields(auto& m, auto& v) { v(m.text); }
};
using EchoReply = EchoRequest;

class RpcTest : public ::testing::Test {
 protected:
  void SetUp() override {
    server_.RegisterHandler(
        "echo",
        [](const std::vector<uint8_t>& payload)
            -> Result<std::vector<uint8_t>> { return payload; });
    server_.RegisterHandler(
        "fail",
        [](const std::vector<uint8_t>&) -> Result<std::vector<uint8_t>> {
          return Status::KeyError("no such thing");
        });
    server_.RegisterHandler(
        "slow",
        [](const std::vector<uint8_t>& payload)
            -> Result<std::vector<uint8_t>> {
          std::this_thread::sleep_for(std::chrono::milliseconds(300));
          return payload;
        });
    ASSERT_TRUE(server_.Start(0).ok());
  }

  void TearDown() override { server_.Stop(); }

  RpcServer server_;
};

TEST_F(RpcTest, EchoRoundTrip) {
  auto channel = RpcChannel::Connect("127.0.0.1", server_.port());
  ASSERT_TRUE(channel.ok()) << channel.status();
  std::vector<uint8_t> payload = {1, 2, 3, 4, 5};
  auto reply = (*channel)->Call("echo", payload);
  ASSERT_TRUE(reply.ok()) << reply.status();
  EXPECT_EQ(*reply, payload);
}

TEST_F(RpcTest, TypedCall) {
  auto channel = RpcChannel::Connect("127.0.0.1", server_.port());
  ASSERT_TRUE(channel.ok());
  EchoRequest request{"hello rpc"};
  auto reply = (*channel)->CallTyped<EchoReply>("echo", request);
  ASSERT_TRUE(reply.ok()) << reply.status();
  EXPECT_EQ(reply->text, "hello rpc");
}

TEST_F(RpcTest, HandlerErrorPropagatesCodeAndMessage) {
  auto channel = RpcChannel::Connect("127.0.0.1", server_.port());
  ASSERT_TRUE(channel.ok());
  auto reply = (*channel)->Call("fail", {});
  ASSERT_FALSE(reply.ok());
  EXPECT_EQ(reply.status().code(), StatusCode::kKeyError);
  EXPECT_EQ(reply.status().message(), "no such thing");
}

TEST_F(RpcTest, UnknownMethodIsInvalid) {
  auto channel = RpcChannel::Connect("127.0.0.1", server_.port());
  ASSERT_TRUE(channel.ok());
  auto reply = (*channel)->Call("nope", {});
  ASSERT_FALSE(reply.ok());
  EXPECT_EQ(reply.status().code(), StatusCode::kInvalid);
}

TEST_F(RpcTest, ManySequentialCalls) {
  auto channel = RpcChannel::Connect("127.0.0.1", server_.port());
  ASSERT_TRUE(channel.ok());
  for (int i = 0; i < 200; ++i) {
    EchoRequest request{"msg-" + std::to_string(i)};
    auto reply = (*channel)->CallTyped<EchoReply>("echo", request);
    ASSERT_TRUE(reply.ok());
    EXPECT_EQ(reply->text, request.text);
  }
  EXPECT_EQ((*channel)->stats().calls, 200u);
}

TEST_F(RpcTest, MultipleConcurrentClients) {
  // The sync server serializes handler execution; all clients still
  // complete correctly.
  constexpr int kClients = 4;
  constexpr int kCallsEach = 50;
  std::atomic<int> ok_calls{0};
  std::vector<std::thread> threads;
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      auto channel = RpcChannel::Connect("127.0.0.1", server_.port());
      ASSERT_TRUE(channel.ok());
      for (int i = 0; i < kCallsEach; ++i) {
        EchoRequest request{"c" + std::to_string(c) + "-" +
                            std::to_string(i)};
        auto reply = (*channel)->CallTyped<EchoReply>("echo", request);
        if (reply.ok() && reply->text == request.text) {
          ok_calls.fetch_add(1);
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(ok_calls.load(), kClients * kCallsEach);
  EXPECT_EQ(server_.stats().calls,
            static_cast<uint64_t>(kClients * kCallsEach));
}

TEST_F(RpcTest, DeadlineExpiresOnSlowHandler) {
  auto channel = RpcChannel::Connect("127.0.0.1", server_.port());
  ASSERT_TRUE(channel.ok());
  auto reply = (*channel)->Call("slow", {}, /*timeout_ms=*/50);
  ASSERT_FALSE(reply.ok());
  EXPECT_EQ(reply.status().code(), StatusCode::kTimeout);
  // The channel invalidates itself after a timeout (the response may
  // still arrive and would desynchronize the stream).
  EXPECT_FALSE((*channel)->connected());
}

TEST_F(RpcTest, CallAfterDisconnectFails) {
  auto channel = RpcChannel::Connect("127.0.0.1", server_.port());
  ASSERT_TRUE(channel.ok());
  (*channel)->Disconnect();
  auto reply = (*channel)->Call("echo", {});
  EXPECT_EQ(reply.status().code(), StatusCode::kNotConnected);
}

TEST_F(RpcTest, SimulatedRttAddsLatency) {
  constexpr int64_t kRtt = 2 * 1000 * 1000;  // 2 ms
  ChannelOptions options;
  options.simulated_rtt_ns = kRtt;
  auto channel = RpcChannel::Connect("127.0.0.1", server_.port(), options);
  ASSERT_TRUE(channel.ok());
  Stopwatch sw;
  auto reply = (*channel)->Call("echo", {});
  ASSERT_TRUE(reply.ok());
  EXPECT_GE(sw.ElapsedNanos(), kRtt);
}

TEST_F(RpcTest, ServerStatsCountErrors) {
  auto channel = RpcChannel::Connect("127.0.0.1", server_.port());
  ASSERT_TRUE(channel.ok());
  (void)(*channel)->Call("fail", {});
  (void)(*channel)->Call("echo", {});
  auto stats = server_.stats();
  EXPECT_EQ(stats.calls, 2u);
  EXPECT_EQ(stats.errors, 1u);
}

TEST_F(RpcTest, ServiceDelayIsEnforced) {
  server_.set_service_delay_ns(1 * 1000 * 1000);  // 1 ms
  auto channel = RpcChannel::Connect("127.0.0.1", server_.port());
  ASSERT_TRUE(channel.ok());
  Stopwatch sw;
  ASSERT_TRUE((*channel)->Call("echo", {}).ok());
  EXPECT_GE(sw.ElapsedNanos(), 1 * 1000 * 1000);
  server_.set_service_delay_ns(0);
}

TEST_F(RpcTest, ConcurrentCallsFromManyThreadsShareOneChannel) {
  auto channel = RpcChannel::Connect("127.0.0.1", server_.port());
  ASSERT_TRUE(channel.ok());
  constexpr int kThreads = 4;
  constexpr int kCallsEach = 64;
  std::atomic<int> ok_calls{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      // Every call is issued before the first reply is awaited.
      std::vector<std::string> sent;
      std::vector<Future<Result<EchoReply>>> replies;
      for (int i = 0; i < kCallsEach; ++i) {
        EchoRequest request{"t" + std::to_string(t) + "-" +
                            std::to_string(i)};
        sent.push_back(request.text);
        replies.push_back((*channel)->CallTypedAsync<EchoReply>(
            "echo", request, uint64_t{0}));
      }
      for (int i = 0; i < kCallsEach; ++i) {
        auto reply = replies[i].Take();
        if (reply.ok() && reply->text == sent[i]) ok_calls.fetch_add(1);
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(ok_calls.load(), kThreads * kCallsEach);
  EXPECT_EQ((*channel)->stats().calls,
            static_cast<uint64_t>(kThreads * kCallsEach));
  EXPECT_EQ((*channel)->stats().reconnects, 0u);
}

TEST_F(RpcTest, ReplyAfterTheDeadlineIsDiscardedAndTheConnectionKept) {
  auto channel = RpcChannel::Connect("127.0.0.1", server_.port());
  ASSERT_TRUE(channel.ok());
  auto late = (*channel)->CallWithDeadline("slow", {}, Deadline::AfterMs(50));
  EXPECT_EQ(late.status().code(), StatusCode::kDeadlineExceeded);
  // The slow handler answers ~250 ms later; that reply matches no
  // pending call and is dropped without touching the connection.
  std::this_thread::sleep_for(std::chrono::milliseconds(400));
  EXPECT_TRUE((*channel)->connected());
  auto next = (*channel)->Call("echo", {7});
  ASSERT_TRUE(next.ok()) << next.status();
  EXPECT_EQ(*next, std::vector<uint8_t>{7});
  EXPECT_EQ((*channel)->stats().reconnects, 0u);
}

TEST_F(RpcTest, StoppingTheLoopCompletesCallsInFlight) {
  auto loop = std::make_shared<ChannelLoop>();
  auto channel =
      RpcChannel::Connect("127.0.0.1", server_.port(), ChannelOptions{}, loop);
  ASSERT_TRUE(channel.ok());
  auto slow = (*channel)->CallAsync("slow", {});
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  ASSERT_FALSE(slow.Ready());
  loop->Stop();
  ASSERT_TRUE(slow.Ready());
  EXPECT_EQ(slow.Take().status().code(), StatusCode::kCancelled);
  EXPECT_EQ((*channel)->Call("echo", {}).status().code(),
            StatusCode::kCancelled);
}

TEST(RpcChannelTest, PeerResetFailsEveryCallInFlight) {
  uint16_t port = 0;
  auto listener = net::TcpListen(0, &port);
  ASSERT_TRUE(listener.ok()) << listener.status();
  std::thread peer([&] {
    auto conn = net::Accept(listener->get());
    if (!conn.ok()) return;
    // Take the pipelined requests, answer none, and reset.
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    linger reset{1, 0};
    ::setsockopt(conn->get(), SOL_SOCKET, SO_LINGER, &reset, sizeof(reset));
    conn->Reset();
  });
  auto channel = RpcChannel::Connect("127.0.0.1", port);
  ASSERT_TRUE(channel.ok()) << channel.status();
  std::vector<Future<CallResult>> calls;
  for (uint8_t i = 0; i < 8; ++i) {
    calls.push_back((*channel)->CallAsync("echo", {i}));
  }
  for (auto& call : calls) {
    auto result = call.Take();
    ASSERT_FALSE(result.ok());
    EXPECT_TRUE(result.status().Is(StatusCode::kIoError) ||
                result.status().Is(StatusCode::kNotConnected))
        << result.status();
  }
  peer.join();
  EXPECT_FALSE((*channel)->connected());
}

TEST(RpcLifecycleTest, ConnectToStoppedServerFails) {
  auto channel = RpcChannel::Connect("127.0.0.1", 1);
  EXPECT_FALSE(channel.ok());
}

TEST(RpcLifecycleTest, RestartOnNewPort) {
  RpcServer server;
  server.RegisterHandler(
      "echo", [](const std::vector<uint8_t>& p)
                  -> Result<std::vector<uint8_t>> { return p; });
  ASSERT_TRUE(server.Start(0).ok());
  uint16_t port = server.port();
  server.Stop();
  EXPECT_FALSE(server.running());
  // Channel to the stopped server cannot complete a call.
  auto channel = RpcChannel::Connect("127.0.0.1", port);
  if (channel.ok()) {
    EXPECT_FALSE((*channel)->Call("echo", {}).ok());
  }
}

TEST(RpcMessageTest, RequestRoundTrip) {
  const std::vector<uint8_t> payload = {9, 8, 7};
  wire::Writer w;
  EncodeRequest(w, 42, "Plasma.Lookup", 1500, payload);
  wire::Reader r(w.data(), w.size());
  auto decoded = wire::Decode<RpcRequestView>(r);
  ASSERT_TRUE(decoded.ok());
  EXPECT_TRUE(r.AtEnd());
  EXPECT_EQ(decoded->call_id, 42u);
  EXPECT_EQ(decoded->method, "Plasma.Lookup");
  EXPECT_EQ(decoded->deadline_ms, 1500u);
  EXPECT_EQ(decoded->payload, std::string_view("\x09\x08\x07", 3));
}

TEST(RpcMessageTest, ResponseRoundTripWithError) {
  RpcResponse response;
  response.call_id = 7;
  response.code = StatusCode::kKeyError;
  response.error = "missing";
  wire::Writer w;
  wire::Encode(w, response);
  wire::Reader r(w.data(), w.size());
  auto decoded = wire::Decode<RpcResponse>(r);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->ToStatus().code(), StatusCode::kKeyError);
  EXPECT_EQ(decoded->ToStatus().message(), "missing");
}

TEST(RpcMessageTest, BadStatusCodeRejected) {
  wire::Writer w;
  w.PutU64(1);
  w.PutU8(255);  // invalid status code
  w.PutString("");
  w.PutBytes("");
  wire::Reader r(w.data(), w.size());
  EXPECT_FALSE(wire::Decode<RpcResponse>(r).ok());
}

}  // namespace
}  // namespace mdos::rpc
