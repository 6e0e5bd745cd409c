// Fig. 6 — Plasma object buffer retrieval performance comparison.
//
// Reproduces the paper's Figure 6: "total object buffer retrieval
// latency per benchmark as measured from the time of the request to the
// reception of the last buffer", for a local client and a remote client,
// across the six Table I specs. The paper's shape: local latency scales
// with the number of requested objects (1.885 ms @1000 down to 0.075 ms
// @10); remote latency is ms-scale and dominated by the RPC round trip
// (5.049 ms @1000, ~2.6 ms @100), so it flattens rather than scaling
// cleanly with object count.
//
// A second section measures the mapped data plane (shared index +
// generation-validated descriptors): the same remote Get with zero RPCs
// against the RPC+pin rung on the same cluster. Emits RESULT lines for
// tools/run_benches.py.
#include <cstdio>

#include "bench_common.h"

namespace mdos::bench {
namespace {

// Paper's reported values, for side-by-side shape comparison.
struct PaperRef {
  double local_ms;
  double remote_ms;
};
PaperRef PaperFig6(int bench_index) {
  switch (bench_index) {
    case 1: return {1.885, 5.049};   // 1000 objects
    case 2: return {0.953, 3.527};   // 500 (approximate read off figure)
    case 3: return {0.402, 2.624};   // 200/100-range reported values
    case 4: return {0.208, 2.624};   // 100 objects: 2.624 ms reported
    case 5: return {0.116, 2.301};   // 50 (approximate)
    case 6: return {0.075, 2.102};   // 10 objects: 0.075 ms local
  }
  return {0, 0};
}

int RunPaperShape() {
  auto bench = BenchCluster::Create();
  if (bench == nullptr) return 1;

  std::printf(
      "%-6s %-8s | %-27s | %-27s | %-17s\n", "", "",
      "local retrieval (ms)", "remote retrieval (ms)", "paper (ms)");
  std::printf("%-6s %-8s | %-8s %-8s %-8s | %-8s %-8s %-8s | %-8s %-8s\n",
              "bench", "objects", "p50", "min", "p95", "p50", "min", "p95",
              "local", "remote");

  const int reps = Repetitions();
  for (const BenchSpec& spec : Table1Specs()) {
    std::vector<double> local_ms, remote_ms;
    for (int rep = 0; rep < reps; ++rep) {
      auto ids = SpecIds(spec, rep);
      (void)CommitObjects(bench->producer(), ids, spec.object_bytes());

      std::vector<plasma::ObjectBuffer> buffers;
      local_ms.push_back(
          RetrieveBuffers(bench->local_consumer(), ids, &buffers) * 1e3);
      remote_ms.push_back(
          RetrieveBuffers(bench->remote_consumer(), ids, &buffers) * 1e3);

      ReleaseAll(bench->local_consumer(), ids);
      ReleaseAll(bench->remote_consumer(), ids);
      DeleteAll(bench->producer(), ids);
    }
    Summary local = Summarize(local_ms);
    Summary remote = Summarize(remote_ms);
    PaperRef paper = PaperFig6(spec.index);
    std::printf(
        "%-6d %-8d | %-8.3f %-8.3f %-8.3f | %-8.3f %-8.3f %-8.3f | "
        "%-8.3f %-8.3f\n",
        spec.index, spec.num_objects, local.p50, local.min, local.p95,
        remote.p50, remote.min, remote.p95, paper.local_ms,
        paper.remote_ms);
    std::printf(
        "RESULT bench=fig6 spec=%d objects=%d size_kb=%llu "
        "local_p50_ms=%.3f local_min_ms=%.3f local_p95_ms=%.3f "
        "remote_p50_ms=%.3f remote_min_ms=%.3f remote_p95_ms=%.3f "
        "paper_local_ms=%.3f paper_remote_ms=%.3f\n",
        spec.index, spec.num_objects,
        static_cast<unsigned long long>(spec.size_kb), local.p50, local.min,
        local.p95, remote.p50, remote.min, remote.p95, paper.local_ms,
        paper.remote_ms);
    std::fflush(stdout);
  }

  std::printf(
      "\nshape targets: local scales with object count and is well below "
      "remote;\nremote is ms-scale, RPC-dominated, and flattens for small "
      "object counts.\n");
  return 0;
}

// Mapped data plane section: shared index + mapped_remote_reads on, so a
// plain remote Get resolves by fabric reads alone (index probe + sampled
// generation stamp — zero RPCs), while `pinned` Gets take the classic
// rung (index probe + one pin RPC per object, each paying the simulated
// LAN RTT). Local retrieval on the same cluster anchors the comparison.
int RunMappedPlane() {
  std::printf(
      "\n--- mapped data plane: remote Get, zero-RPC vs RPC+pin rung ---\n");
  auto bench = BenchCluster::Create(
      /*nodes=*/2, /*pool_bytes=*/1500ull * 1000 * 1000,
      /*pin_remote_objects=*/true, /*enable_shared_index=*/true,
      /*mapped_remote_reads=*/true, /*check_global_uniqueness=*/false);
  if (bench == nullptr) return 1;

  std::printf("%-6s %-8s | %-10s %-10s %-10s | %-9s %-9s\n", "bench",
              "objects", "local p50", "rpc p50", "mapped p50", "map/loc",
              "rpc/map");

  // The pinned rung pays one RTT per object, so cap the costly specs the
  // same way bench_scaleout does.
  const int reps = std::max(3, Repetitions() / 2);
  for (const BenchSpec& spec : Table1Specs()) {
    std::vector<double> local_ms, rpc_ms, mapped_ms;
    for (int rep = 0; rep < reps; ++rep) {
      auto ids = SpecIds(spec, rep);
      (void)CommitObjects(bench->producer(), ids, spec.object_bytes());

      std::vector<plasma::ObjectBuffer> buffers;
      rpc_ms.push_back(RetrieveBuffers(bench->remote_consumer(), ids,
                                       &buffers, /*timeout_ms=*/30000,
                                       /*pinned=*/true) *
                       1e3);
      ReleaseAll(bench->remote_consumer(), ids);
      mapped_ms.push_back(
          RetrieveBuffers(bench->remote_consumer(), ids, &buffers) * 1e3);
      local_ms.push_back(
          RetrieveBuffers(bench->local_consumer(), ids, &buffers) * 1e3);

      ReleaseAll(bench->local_consumer(), ids);
      ReleaseAll(bench->remote_consumer(), ids);
      DeleteAll(bench->producer(), ids);
    }
    Summary local = Summarize(local_ms);
    Summary rpc = Summarize(rpc_ms);
    Summary mapped = Summarize(mapped_ms);
    double map_vs_local = local.p50 > 0 ? mapped.p50 / local.p50 : 0;
    double rpc_vs_map = mapped.p50 > 0 ? rpc.p50 / mapped.p50 : 0;
    std::printf("%-6d %-8d | %-10.3f %-10.3f %-10.3f | %-9.2f %-9.1f\n",
                spec.index, spec.num_objects, local.p50, rpc.p50,
                mapped.p50, map_vs_local, rpc_vs_map);
    std::printf(
        "RESULT bench=fig6_mapped spec=%d objects=%d size_kb=%llu "
        "local_p50_ms=%.3f rpc_p50_ms=%.3f mapped_p50_ms=%.3f "
        "mapped_vs_local=%.2f rpc_vs_mapped=%.1f\n",
        spec.index, spec.num_objects,
        static_cast<unsigned long long>(spec.size_kb), local.p50, rpc.p50,
        mapped.p50, map_vs_local, rpc_vs_map);
    std::fflush(stdout);
  }

  std::printf(
      "\nshape targets: mapped remote Get tracks local retrieval (within "
      "~2x);\nthe RPC+pin rung scales with object count x RTT and sits far "
      "above both.\n");
  return 0;
}

int Run() {
  PrintHarnessHeader(
      "Fig. 6 — object buffer retrieval latency (local vs remote)");
  // Sections run sequentially and each tears its cluster down before the
  // next starts, keeping peak pool memory to one cluster's worth.
  if (int rc = RunPaperShape(); rc != 0) return rc;
  return RunMappedPlane();
}

}  // namespace
}  // namespace mdos::bench

int main() { return mdos::bench::Run(); }
