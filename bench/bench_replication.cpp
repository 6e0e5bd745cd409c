// Replication cost and re-heal throughput.
//
// Two questions an operator asks before turning on
// StoreOptions::replication_factor:
//
//   1. What does k-way replication cost on the write path? Every seal
//      sends k-1 Plasma.Replicate RPCs that carry the object's location
//      (each paying the modelled LAN RTT), and each target pulls the
//      payload with one modelled fabric read before the seal acks, so
//      the overhead should be roughly linear in (k-1) x (RTT + payload
//      read time).
//   2. How fast does the cluster heal after a kill? From the moment a
//      replica holder dies, the suspect->dead window plus the re-heal
//      driver's push rate bound how long the cluster runs below k.
//
// Phase "write" seals the same workload at k=1/2/3 on a 3-node cluster
// and reports per-seal p50 latency and volume throughput. Phase
// "reheal" kills the replica holder under k=2 and times kill-to-healed
// (detection window included — that IS the exposure an operator cares
// about), reporting copies/s and MB/s restored.
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "cluster/cluster.h"
#include "common/clock.h"
#include "common/rng.h"
#include "plasma/store.h"

namespace mdos::bench {
namespace {

std::string Payload(uint64_t seed, size_t size) {
  std::string data(size, '\0');
  SplitMix64(seed).Fill(data.data(), data.size());
  return data;
}

// A 3-node cluster with the calibrated fabric, the simulated LAN RTT
// on every peer RPC, and a fast health machine (the re-heal phase
// times the detection window; default heartbeats would swamp it).
std::unique_ptr<cluster::Cluster> MakeCluster(uint32_t k) {
  double scale = CalibrationScale();
  tf::FabricConfig fabric;
  fabric.local = tf::ScaledLocalParams(scale);
  fabric.remote = tf::ScaledRemoteParams(scale);
  auto cluster = std::make_unique<cluster::Cluster>(fabric);
  for (size_t i = 0; i < 3; ++i) {
    cluster::NodeOptions options;
    options.name = "node" + std::to_string(i);
    options.pool_size = 64ull << 20;
    options.check_global_uniqueness = false;
    options.replication_factor = k;
    options.registry.simulated_rtt_ns = SimulatedRttNs();
    options.registry.heartbeat_interval_ms = 20;
    options.registry.ping_timeout_ms = 200;
    options.registry.suspect_after_failures = 1;
    options.registry.dead_after_failures = 3;
    options.registry.redial_backoff_min_ms = 1;
    options.registry.redial_backoff_max_ms = 50;
    auto node = cluster->AddNode(options);
    if (!node.ok()) {
      std::fprintf(stderr, "AddNode: %s\n",
                   node.status().ToString().c_str());
      return nullptr;
    }
  }
  if (Status started = cluster->StartAll(); !started.ok()) {
    std::fprintf(stderr, "StartAll: %s\n", started.ToString().c_str());
    return nullptr;
  }
  return cluster;
}

template <typename Pred>
bool PollUntil(Pred pred, int timeout_ms) {
  Stopwatch sw;
  while (sw.ElapsedMillis() < timeout_ms) {
    if (pred()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  return pred();
}

void WritePhase(uint64_t size_kb, int objects) {
  const uint64_t bytes = size_kb * 1000;
  double k1_mb_s = 0;
  for (uint32_t k : {1u, 2u, 3u}) {
    auto cluster = MakeCluster(k);
    if (cluster == nullptr) return;
    auto producer = cluster->node(0)->CreateClient("producer");
    if (!producer.ok()) return;

    std::vector<double> seal_ms;
    Stopwatch total;
    for (int i = 0; i < objects; ++i) {
      ObjectId id = ObjectId::FromName(
          "repl-w-" + std::to_string(k) + "-" + std::to_string(i));
      Stopwatch sw;
      Status put = (*producer)->CreateAndSeal(id, Payload(i, bytes));
      if (!put.ok()) {
        std::fprintf(stderr, "seal failed: %s\n",
                     put.ToString().c_str());
        return;
      }
      seal_ms.push_back(sw.ElapsedMillis());
    }
    double elapsed = total.ElapsedSeconds();
    double mb_s =
        static_cast<double>(bytes) * objects / 1e6 / elapsed;
    if (k == 1) k1_mb_s = mb_s;
    Summary s = Summarize(seal_ms);
    std::printf("%-8llu %-4u %-12.3f %-12.3f %-12.1f %-10.2fx\n",
                static_cast<unsigned long long>(size_kb), k, s.p50,
                s.p95, mb_s, k1_mb_s / mb_s);
    std::printf(
        "RESULT bench=replication phase=write size_kb=%llu k=%u "
        "p50_seal_ms=%.3f p95_seal_ms=%.3f mb_per_s=%.1f "
        "slowdown_vs_k1=%.2f\n",
        static_cast<unsigned long long>(size_kb), k, s.p50, s.p95,
        mb_s, k1_mb_s / mb_s);
    std::fflush(stdout);
  }
}

void RehealPhase(uint64_t size_kb, int objects) {
  const uint64_t bytes = size_kb * 1000;
  auto cluster = MakeCluster(/*k=*/2);
  if (cluster == nullptr) return;
  auto producer = cluster->node(0)->CreateClient("producer");
  if (!producer.ok()) return;

  for (int i = 0; i < objects; ++i) {
    ObjectId id = ObjectId::FromName("repl-h-" + std::to_string(i));
    if (!(*producer)->CreateAndSeal(id, Payload(i, bytes)).ok()) return;
  }
  plasma::Store& origin = cluster->node(0)->store();
  if (!PollUntil(
          [&] {
            auto stats = origin.stats();
            return stats.under_replicated == 0 &&
                   origin.PendingReheals() == 0;
          },
          30000)) {
    std::fprintf(stderr, "initial replication never converged\n");
    return;
  }

  // All replicas sit on the first-ranked peer; kill it and time the
  // whole exposure window: detection + re-push of every copy.
  size_t victim = 0;
  for (size_t i = 1; i < 3; ++i) {
    if (cluster->node(i)->store().stats().objects_sealed > 0) {
      victim = i;
      break;
    }
  }
  if (victim == 0) return;
  Stopwatch heal;
  (void)cluster->KillNode(victim);
  bool healed = PollUntil(
      [&] {
        auto stats = origin.stats();
        return stats.reheal_copies >= static_cast<uint64_t>(objects) &&
               stats.under_replicated == 0 &&
               origin.PendingReheals() == 0;
      },
      60000);
  double heal_ms = heal.ElapsedMillis();
  if (!healed) {
    std::fprintf(stderr, "re-heal never converged\n");
    return;
  }
  auto stats = origin.stats();
  double copies_s = stats.reheal_copies / (heal_ms / 1e3);
  double mb_s = stats.reheal_bytes / 1e6 / (heal_ms / 1e3);
  std::printf(
      "\nre-heal: %llu copies (%.1f MB) in %.1f ms -> %.1f copies/s, "
      "%.1f MB/s\n",
      static_cast<unsigned long long>(stats.reheal_copies),
      stats.reheal_bytes / 1e6, heal_ms, copies_s, mb_s);
  std::printf(
      "RESULT bench=replication phase=reheal objects=%d size_kb=%llu "
      "heal_ms=%.1f copies_per_s=%.1f mb_per_s=%.1f\n",
      objects, static_cast<unsigned long long>(size_kb), heal_ms,
      copies_s, mb_s);
  std::fflush(stdout);
}

int Run() {
  PrintHarnessHeader(
      "k-way replication: write overhead and post-kill re-heal rate");
  const int reps = Repetitions();

  std::printf("%-8s %-4s %-12s %-12s %-12s %-10s\n", "size_kb", "k",
              "p50_ms", "p95_ms", "MB/s", "vs_k1");
  WritePhase(/*size_kb=*/64, /*objects=*/std::max(16, reps * 2));
  WritePhase(/*size_kb=*/1000, /*objects=*/std::max(8, reps));

  RehealPhase(/*size_kb=*/256, /*objects=*/std::max(24, reps * 4));

  std::printf(
      "\nshape target: write overhead linear in (k-1) x payload (each "
      "extra copy\npays one LAN round trip and one fabric pull per seal); "
      "re-heal rate bounded\nby the detection window plus one push per "
      "lost copy from the single elected healer.\n");
  return 0;
}

}  // namespace
}  // namespace mdos::bench

int main() { return mdos::bench::Run(); }
