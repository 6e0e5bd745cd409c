// Ablation C — decomposition of the unary RPC round-trip cost (DESIGN.md
// ablation C), measured through the blocking Call wrapper.
//
// The paper chose gRPC in synchronous unary mode "due to its favorable
// servicing latency" and "to minimize protocol overhead" (§IV-A2), and
// Fig. 6 shows remote retrieval dominated by this RPC. This bench breaks
// the per-call cost into its parts on our gRPC stand-in: serialization
// only, loopback round trip, round trip with simulated LAN RTT, and
// batched-lookup payload scaling — the knobs that shape Fig. 6's remote
// curve.
#include <benchmark/benchmark.h>

#include <memory>

#include "common/object_id.h"
#include "dist/messages.h"
#include "rpc/channel.h"
#include "rpc/server.h"
#include "tf/message_channel.h"

namespace mdos::rpc {
namespace {

// Serialization-only: encode+decode a batched lookup request of N ids.
void BM_SerializeLookup(benchmark::State& state) {
  dist::LookupRequest request;
  for (int i = 0; i < state.range(0); ++i) {
    request.ids.push_back(ObjectId::FromName("id" + std::to_string(i)));
  }
  for (auto _ : state) {
    wire::Writer w;
    wire::Encode(w, request);
    wire::Reader r(w.data(), w.size());
    auto decoded = wire::Decode<dist::LookupRequest>(r);
    benchmark::DoNotOptimize(decoded);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_SerializeLookup)->Arg(1)->Arg(10)->Arg(100)->Arg(1000);

struct ServerFixture {
  RpcServer server;
  ServerFixture() {
    server.RegisterHandler(
        "echo", [](const std::vector<uint8_t>& p)
                    -> mdos::Result<std::vector<uint8_t>> { return p; });
    (void)server.Start(0);
  }
};

ServerFixture& Fixture() {
  static ServerFixture fixture;
  return fixture;
}

// Raw loopback unary round trip vs payload size.
void BM_UnaryCallLoopback(benchmark::State& state) {
  auto channel = RpcChannel::Connect("127.0.0.1", Fixture().server.port());
  if (!channel.ok()) {
    state.SkipWithError("connect failed");
    return;
  }
  std::vector<uint8_t> payload(state.range(0), 0x5A);
  for (auto _ : state) {
    auto reply = (*channel)->Call("echo", payload);
    if (!reply.ok()) {
      state.SkipWithError("call failed");
      break;
    }
  }
  state.SetBytesProcessed(state.iterations() * state.range(0) * 2);
}
BENCHMARK(BM_UnaryCallLoopback)
    ->Arg(0)
    ->Arg(64)
    ->Arg(1024)
    ->Arg(20 * 1000)   // ~1000-id lookup request
    ->Arg(1 << 20);

// Round trip with the simulated data-centre RTT used by the Fig. 6
// harness (2 ms): shows RPC latency dominated by the network, the
// paper's observation for remote retrieval.
void BM_UnaryCallSimulatedLan(benchmark::State& state) {
  ChannelOptions options;
  options.simulated_rtt_ns = state.range(0);
  auto channel =
      RpcChannel::Connect("127.0.0.1", Fixture().server.port(), options);
  if (!channel.ok()) {
    state.SkipWithError("connect failed");
    return;
  }
  std::vector<uint8_t> payload(1024, 0x5A);
  for (auto _ : state) {
    auto reply = (*channel)->Call("echo", payload);
    if (!reply.ok()) {
      state.SkipWithError("call failed");
      break;
    }
  }
}
BENCHMARK(BM_UnaryCallSimulatedLan)
    ->Arg(0)
    ->Arg(250 * 1000)        // 250 us switch-local
    ->Arg(2 * 1000 * 1000);  // 2 ms (Fig. 6 harness default)

// Handler-side service time (the remote store scanning its object map).
void BM_UnaryCallWithServiceDelay(benchmark::State& state) {
  Fixture().server.set_service_delay_ns(state.range(0));
  auto channel = RpcChannel::Connect("127.0.0.1", Fixture().server.port());
  if (!channel.ok()) {
    state.SkipWithError("connect failed");
    return;
  }
  std::vector<uint8_t> payload(64, 1);
  for (auto _ : state) {
    auto reply = (*channel)->Call("echo", payload);
    if (!reply.ok()) {
      state.SkipWithError("call failed");
      break;
    }
  }
  Fixture().server.set_service_delay_ns(0);
}
BENCHMARK(BM_UnaryCallWithServiceDelay)->Arg(0)->Arg(10000)->Arg(100000);

// The §IV-A2 alternative the paper rejected for the prototype: messaging
// through disaggregated memory. One-way message latency through
// tf::MessageChannel under the calibrated remote model — contrast with
// BM_UnaryCallSimulatedLan above (the chosen design's RPC cost).
void BM_ChannelMessageOneWay(benchmark::State& state) {
  tf::FabricConfig config;  // paper-calibrated remote latency (~2.5 us)
  static std::unique_ptr<tf::Fabric> fabric;
  static tf::ChannelProducer producer;
  static tf::ChannelConsumer consumer;
  static bool initialized = false;
  if (!initialized) {
    fabric = std::make_unique<tf::Fabric>(config);
    auto a = fabric->AddNode("a", 1 << 20);
    auto b = fabric->AddNode("b", 1 << 20);
    if (!a.ok() || !b.ok() ||
        !tf::MessageChannel::Create(fabric.get(), *a, 0, *b, 0, 1 << 16,
                                    &producer, &consumer)
             .ok()) {
      state.SkipWithError("channel setup failed");
      return;
    }
    initialized = true;
  }
  std::vector<uint8_t> message(state.range(0), 0x3C);
  for (auto _ : state) {
    if (!producer.Send(message.data(), message.size(), 1000).ok()) {
      state.SkipWithError("send failed");
      break;
    }
    auto received = consumer.Receive(1000);
    if (!received.ok()) {
      state.SkipWithError("receive failed");
      break;
    }
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_ChannelMessageOneWay)->Arg(64)->Arg(1024)->Arg(20000);

}  // namespace
}  // namespace mdos::rpc

BENCHMARK_MAIN();
