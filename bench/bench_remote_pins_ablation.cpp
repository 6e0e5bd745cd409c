// Ablation B — distributed usage tracking (a §V-B future-work extension).
//
// The paper's prototype did not share object usage across stores, so a
// home store could evict an object a remote client was still reading.
// Remote pins close that hole at a price: a Plasma.Pin RPC before each
// remote location reaches the client and a Plasma.Unpin on release.
// This bench measures repeated remote retrieval latency in two
// configurations:
//   baseline (paper) — every Get pays the lookup RPC, nothing is pinned
//   +remote pins     — additionally pin remote objects at their home
//                      store (usage tracking), paying pin/unpin RPCs
#include <cstdio>

#include "bench_common.h"

namespace mdos::bench {
namespace {

struct Config {
  const char* name;
  bool pins;
};

double MedianRepeatGetMs(BenchCluster& bench, int objects, int repeats) {
  // Commit once; measure repeated retrievals of the same ids from the
  // remote consumer.
  BenchSpec spec{0, objects, 10};  // 10 kB objects
  auto ids = SpecIds(spec, /*rep=*/9000 + objects);
  (void)CommitObjects(bench.producer(), ids, spec.object_bytes());

  std::vector<double> samples;
  for (int i = 0; i < repeats; ++i) {
    std::vector<plasma::ObjectBuffer> buffers;
    samples.push_back(
        RetrieveBuffers(bench.remote_consumer(), ids, &buffers) * 1e3);
    ReleaseAll(bench.remote_consumer(), ids);
  }
  DeleteAll(bench.producer(), ids);
  // Drop the first sample: it also pays the one-time region attachment.
  samples.erase(samples.begin());
  return Summarize(samples).p50;
}

int Run() {
  PrintHarnessHeader(
      "Ablation B — remote pins (distributed usage tracking, paper §V-B)");

  const Config configs[] = {
      {"baseline (paper)", false},
      {"+remote pins", true},
  };

  std::printf("%-22s %-14s %-14s %-14s\n", "config", "get10_ms",
              "get100_ms", "pin_rpcs");
  const int repeats = std::max(5, Repetitions());
  for (const Config& config : configs) {
    auto bench = BenchCluster::Create(
        /*nodes=*/2, /*pool_bytes=*/256ull << 20,
        /*pin_remote_objects=*/config.pins);
    if (bench == nullptr) return 1;

    double get10 = MedianRepeatGetMs(*bench, 10, repeats);
    double get100 = MedianRepeatGetMs(*bench, 100, repeats);
    uint64_t pin_rpcs = bench->cluster().node(1)->registry().stats().pin_rpcs;
    std::printf("%-22s %-14.3f %-14.3f %-14llu\n", config.name, get10,
                get100, static_cast<unsigned long long>(pin_rpcs));
    std::fflush(stdout);
  }

  std::printf(
      "\nshape target: the baseline pays one lookup RPC per batched Get; "
      "pins add\nper-object RPC cost on top (the price of distributed "
      "usage safety).\n");
  return 0;
}

}  // namespace
}  // namespace mdos::bench

int main() { return mdos::bench::Run(); }
