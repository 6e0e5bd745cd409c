// Fig. 1 motivation — scale-out copying vs memory-disaggregated access.
//
// The paper's Figure 1 contrasts the two scaling approaches: (a)
// scale-out, where consuming remote data means copying it over the local
// network into local memory first, and (b) memory disaggregation, where
// the consumer loads the remote memory directly. This bench executes
// both paths for one dataset and reports time-to-consumption:
//
//   scale-out: stream the object's bytes over a real TCP loopback
//     connection throttled to a 10 GbE-class LAN model (1.16 GiB/s *
//     scale), copy into local memory, then read it locally;
//   disaggregated: drain the object directly from the home node's
//     exported memory through the fabric accessor (5.75 GiB/s * scale),
//     measured twice — once through the classic RPC+pin Get and once
//     through the mapped data plane (shared index + generation-validated
//     descriptor, zero RPCs) — each timed request-to-last-byte.
//
// Shape target: direct disaggregated access wins for every size, and the
// gap widens with volume since the copy pays LAN transfer + local read;
// the mapped Get additionally shaves the per-object RPC round trips off
// the disaggregated path, which dominates at small sizes.
#include <cstdio>
#include <thread>

#include "bench_common.h"
#include "common/clock.h"
#include "net/frame.h"
#include "net/socket.h"
#include "tf/latency_model.h"

namespace mdos::bench {
namespace {

// Streams `bytes` of payload over a fresh loopback TCP connection,
// throttled to `lan` on the sender side. Returns receive-side seconds.
double TcpCopySeconds(uint64_t bytes, const tf::LatencyParams& lan) {
  uint16_t port = 0;
  auto listener = net::TcpListen(0, &port);
  if (!listener.ok()) return -1;

  std::thread sender([&] {
    auto conn = net::Accept(listener->get());
    if (!conn.ok()) return;
    std::vector<uint8_t> chunk(1 << 20, 0xAB);
    uint64_t sent = 0;
    while (sent < bytes) {
      uint64_t n = std::min<uint64_t>(chunk.size(), bytes - sent);
      int64_t start = MonotonicNanos();
      if (!net::WriteAll(conn->get(), chunk.data(), n).ok()) return;
      tf::EnforceModel(lan, n, start);
      sent += n;
    }
  });

  Stopwatch sw;
  auto conn = net::TcpConnect("127.0.0.1", port);
  double elapsed = -1;
  if (conn.ok()) {
    std::vector<uint8_t> local_copy(bytes);  // the duplicated memory
    uint64_t received = 0;
    while (received < bytes) {
      uint64_t n = std::min<uint64_t>(1 << 20, bytes - received);
      if (!net::ReadAll(conn->get(), local_copy.data() + received, n)
               .ok()) {
        break;
      }
      received += n;
    }
    // Scale-out consumers then read their local copy.
    volatile uint64_t sink = 0;
    for (uint64_t i = 0; i < bytes; i += 4096) {
      sink = sink + local_copy[i];
    }
    elapsed = sw.ElapsedSeconds();
  }
  sender.join();
  return elapsed;
}

int Run() {
  PrintHarnessHeader(
      "Fig. 1 motivation — scale-out copy vs direct disaggregated access");

  // Shared index + mapped reads on: the same cluster serves both the
  // RPC+pin rung (pinned Get) and the zero-RPC mapped Get.
  auto bench = BenchCluster::Create(
      /*nodes=*/2, /*pool_bytes=*/1500ull * 1000 * 1000,
      /*pin_remote_objects=*/true, /*enable_shared_index=*/true,
      /*mapped_remote_reads=*/true, /*check_global_uniqueness=*/false);
  if (bench == nullptr) return 1;
  const double scale = CalibrationScale();
  tf::LatencyParams lan{/*base_latency_ns=*/50000,
                        /*bandwidth_gib_per_s=*/1.16 * scale};

  std::printf("LAN model: %.2f GiB/s (10 GbE-class, scaled)\n\n",
              lan.bandwidth_gib_per_s);
  std::printf("%-10s %-14s %-14s %-16s %-9s %-9s\n", "size_MB",
              "scaleout_ms", "disagg_rpc_ms", "disagg_mapped_ms", "speedup",
              "rpc/map");

  const int reps = std::max(3, Repetitions() / 2);
  for (uint64_t mb : {1, 4, 16, 64, 256}) {
    uint64_t bytes = mb * 1000 * 1000;
    std::vector<double> copy_ms, rpc_ms, mapped_ms;
    for (int rep = 0; rep < reps; ++rep) {
      ObjectId id = ObjectId::FromName("scaleout-" + std::to_string(mb) +
                                       "-" + std::to_string(rep));
      std::vector<ObjectId> ids = {id};
      (void)CommitObjects(bench->producer(), ids, bytes);

      // Disaggregated, classic rung: Get pays the pin RPC round trip,
      // then the buffer drains directly through the fabric. Both legs
      // count toward time-to-consumption.
      std::vector<plasma::ObjectBuffer> buffers;
      uint64_t read_bytes = 0;
      double get_s = RetrieveBuffers(bench->remote_consumer(), ids,
                                     &buffers, /*timeout_ms=*/30000,
                                     /*pinned=*/true);
      rpc_ms.push_back((get_s + ReadBuffers(buffers, &read_bytes)) * 1e3);
      ReleaseAll(bench->remote_consumer(), ids);

      // Disaggregated, mapped rung: the Get resolves by fabric reads
      // alone and the drain validates generations after each chunk.
      get_s = RetrieveBuffers(bench->remote_consumer(), ids, &buffers);
      mapped_ms.push_back((get_s + ReadBuffers(buffers, &read_bytes)) *
                          1e3);

      // Scale-out path: copy the same volume over the modelled LAN.
      copy_ms.push_back(TcpCopySeconds(bytes, lan) * 1e3);

      ReleaseAll(bench->remote_consumer(), ids);
      DeleteAll(bench->producer(), ids);
    }
    double copy = Summarize(copy_ms).p50;
    double rpc = Summarize(rpc_ms).p50;
    double mapped = Summarize(mapped_ms).p50;
    std::printf("%-10llu %-14.2f %-14.2f %-16.2f %-9.2fx %-9.2f\n",
                static_cast<unsigned long long>(mb), copy, rpc, mapped,
                copy / mapped, rpc / mapped);
    std::printf(
        "RESULT bench=scaleout size_mb=%llu scaleout_ms=%.2f "
        "disagg_rpc_ms=%.2f disagg_mapped_ms=%.2f speedup_vs_copy=%.2f "
        "rpc_vs_mapped=%.2f\n",
        static_cast<unsigned long long>(mb), copy, rpc, mapped,
        copy / mapped, rpc / mapped);
    std::fflush(stdout);
  }

  std::printf(
      "\nshape target: direct access wins at every size; the gap widens "
      "with volume\n(scale-out pays LAN transfer + local copy + local "
      "read and doubles memory);\nmapped Get shaves the RPC round trips, "
      "most visible at small sizes.\n");
  return 0;
}

}  // namespace
}  // namespace mdos::bench

int main() { return mdos::bench::Run(); }
