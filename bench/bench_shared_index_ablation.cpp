// Ablation E — remote look-up mechanisms (paper §IV-A2 / §V-B).
//
// The paper weighs three ways for stores to share object information:
// a shared data structure in disaggregated memory, messaging through
// disaggregated memory, and LAN RPC — and ships RPC while predicting
// that the shared data structure "would likely improve performance".
// This bench measures that prediction: remote Get latency under
//   rpc (paper)    — every unknown id costs a Plasma.Lookup RPC
//   shared index   — ids are resolved by reading the home store's index
//                    table in disaggregated memory (no RPC at all)
// for both cold (first-ever) and warm (repeated) gets.
#include <cstdio>

#include "bench_common.h"
#include "common/log.h"

namespace mdos::bench {
namespace {

struct Config {
  const char* name;
  bool shared_index;
};

// Measures cold and warm remote retrieval of `objects` ids.
void Measure(const Config& config, int objects, double* cold_ms,
             double* warm_ms, uint64_t* index_hits) {
  SetLogLevel(LogLevel::kError);
  double scale = CalibrationScale();
  tf::FabricConfig fabric;
  fabric.local = tf::ScaledLocalParams(scale);
  fabric.remote = tf::ScaledRemoteParams(scale);
  cluster::Cluster cluster(fabric);
  for (int i = 0; i < 2; ++i) {
    cluster::NodeOptions options;
    options.pool_size = 256ull << 20;
    options.pin_remote_objects = false;
    options.enable_shared_index = config.shared_index;
    options.registry.simulated_rtt_ns = SimulatedRttNs();
    if (!cluster.AddNode(options).ok()) std::exit(1);
  }
  if (!cluster.StartAll().ok()) std::exit(1);

  auto producer = cluster.node(0)->CreateClient("producer");
  auto consumer = cluster.node(1)->CreateClient("consumer");
  if (!producer.ok() || !consumer.ok()) std::exit(1);

  const int reps = std::max(5, Repetitions());
  std::vector<double> cold_samples, warm_samples;
  for (int rep = 0; rep < reps; ++rep) {
    BenchSpec spec{50 + rep, objects, 10};
    auto ids = SpecIds(spec, rep);
    (void)CommitObjects(**producer, ids, spec.object_bytes());

    std::vector<plasma::ObjectBuffer> buffers;
    cold_samples.push_back(
        RetrieveBuffers(**consumer, ids, &buffers) * 1e3);
    ReleaseAll(**consumer, ids);
    warm_samples.push_back(
        RetrieveBuffers(**consumer, ids, &buffers) * 1e3);
    ReleaseAll(**consumer, ids);
    DeleteAll(**producer, ids);
  }
  *cold_ms = Summarize(cold_samples).p50;
  *warm_ms = Summarize(warm_samples).p50;
  *index_hits = cluster.node(1)->registry().stats().index_hits;
  cluster.Stop();
}

int Run() {
  PrintHarnessHeader(
      "Ablation E — remote look-up: RPC vs shared index in "
      "disaggregated memory");

  const Config configs[] = {
      {"rpc (paper)", false},
      {"shared index", true},
  };

  std::printf("%-22s %-12s %-12s %-12s %-12s %-12s\n", "config",
              "cold10_ms", "warm10_ms", "cold100_ms", "warm100_ms",
              "index_hits");
  for (const Config& config : configs) {
    double cold10, warm10, cold100, warm100;
    uint64_t hits10, hits100;
    Measure(config, 10, &cold10, &warm10, &hits10);
    Measure(config, 100, &cold100, &warm100, &hits100);
    std::printf("%-22s %-12.3f %-12.3f %-12.3f %-12.3f %-12llu\n",
                config.name, cold10, warm10, cold100, warm100,
                static_cast<unsigned long long>(hits10 + hits100));
    std::fflush(stdout);
  }

  std::printf(
      "\nshape target: the shared index removes the RPC from COLD "
      "lookups too\n(microseconds per probe vs milliseconds per RPC), "
      "confirming the paper's\nprediction for the disaggregated-memory "
      "data structure.\n");
  return 0;
}

}  // namespace
}  // namespace mdos::bench

int main() { return mdos::bench::Run(); }
