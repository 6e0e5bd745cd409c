// Shared multi-node test scaffolding. The cluster suites (failover,
// mapped-read, spill-tier, replication, failure-injection) all need the
// same bring-up pieces — a zero-latency fabric, a fast-failure node
// profile, seeded payloads, and polling — and used to carry private
// copies. They live here once so a tuning change (e.g. heartbeat
// cadence) lands in every suite, and so every port the suites bind is
// allocated in one place (ephemerally, via StartEphemeral) instead of
// as per-file constants that collide under parallel ctest.
#pragma once

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>
#include <utility>

#include "cluster/cluster.h"
#include "common/clock.h"
#include "common/object_id.h"
#include "common/rng.h"
#include "common/status.h"
#include "rpc/server.h"
#include "tf/fabric.h"

namespace mdos::testutil {

// Default WaitUntil timeout. Overridable via MDOS_TEST_TIMEOUT_MS so a
// sanitizer job (where everything runs several times slower) can raise
// every polling deadline in one place instead of patching call sites.
inline int DefaultWaitTimeoutMs() {
  static const int timeout_ms = [] {
    if (const char* env = std::getenv("MDOS_TEST_TIMEOUT_MS")) {
      const int parsed = std::atoi(env);
      if (parsed > 0) return parsed;
    }
    return 5000;
  }();
  return timeout_ms;
}

// Polls `pred` (expensive: RPCs, locks) until it holds or `timeout_ms`
// elapses (-1 = DefaultWaitTimeoutMs). Backs off exponentially from
// 100 µs to 10 ms so a fast-converging predicate is noticed almost
// immediately while a slow one doesn't get hammered with RPCs. Returns
// whether the predicate held.
template <typename Pred>
bool WaitUntil(Pred pred, int timeout_ms = -1) {
  if (timeout_ms < 0) timeout_ms = DefaultWaitTimeoutMs();
  Stopwatch sw;
  int64_t sleep_us = 100;
  while (sw.ElapsedMillis() < timeout_ms) {
    if (pred()) return true;
    std::this_thread::sleep_for(std::chrono::microseconds(sleep_us));
    sleep_us = std::min<int64_t>(sleep_us * 2, 10000);
  }
  return pred();
}

// Zero-latency fabric: tests assert ordering and invariants, not the
// modelled local/remote latency gap.
inline tf::FabricConfig FastFabric() {
  tf::FabricConfig config;
  config.local = tf::LatencyParams{0, 0.0};
  config.remote = tf::LatencyParams{0, 0.0};
  return config;
}

// Deterministic payload bytes from a seed; verify round trips by CRC.
inline std::string RandomPayload(uint64_t seed, size_t size) {
  std::string data(size, '\0');
  SplitMix64(seed).Fill(data.data(), data.size());
  return data;
}

inline ObjectId NamedId(const std::string& prefix, int i) {
  return ObjectId::FromName(prefix + std::to_string(i));
}

// Per-process scratch directory path for spill tiers. Incorporating the
// pid keeps concurrently running test binaries out of each other's
// files.
inline std::string ScratchDir(const std::string& tag) {
  return "/tmp/mdos-" + tag + "-" + std::to_string(::getpid());
}

// The single place test RPC servers get their ports: bind ephemerally
// and report what the kernel picked. Restart-on-same-port scenarios
// capture the returned value; nothing hardcodes a port number.
inline Result<uint16_t> StartEphemeral(rpc::RpcServer& server) {
  MDOS_RETURN_IF_ERROR(server.Start(0));
  return server.port();
}

// Node profile for failure-handling suites: small pool and an
// aggressive health machine (20 ms heartbeat, dead after 3 strikes) so
// kill/heal round trips converge in tens of milliseconds instead of
// test-killing seconds. Everything else is the shipped default.
inline cluster::NodeOptions FailoverNodeOptions() {
  cluster::NodeOptions options;
  options.pool_size = 8 << 20;
  options.registry.rpc_timeout_ms = 2000;
  options.registry.heartbeat_interval_ms = 20;
  options.registry.ping_timeout_ms = 200;
  options.registry.suspect_after_failures = 1;
  options.registry.dead_after_failures = 3;
  options.registry.redial_backoff_min_ms = 1;
  options.registry.redial_backoff_max_ms = 50;
  return options;
}

// True when every live node reports a converged replication state: no
// object below its desired copy count and no re-heal work in flight.
// The kill/heal suites poll this between fault injections.
inline bool ReplicationConverged(cluster::Cluster& cluster) {
  for (size_t i = 0; i < cluster.size(); ++i) {
    cluster::Node* node = cluster.node(i);
    if (!node->started()) continue;
    if (node->store().PendingReheals() != 0) return false;
    if (node->store().stats().under_replicated != 0) return false;
  }
  return true;
}

// N-node generalization of Cluster::CreateTwoNode: same base options
// for every node, names node0..nodeN-1, full mesh on start.
inline Result<std::unique_ptr<cluster::Cluster>> MakeCluster(
    size_t nodes, cluster::NodeOptions base,
    tf::FabricConfig fabric = FastFabric()) {
  auto cluster = std::make_unique<cluster::Cluster>(fabric);
  for (size_t i = 0; i < nodes; ++i) {
    cluster::NodeOptions options = base;
    options.name = "node" + std::to_string(i);
    MDOS_RETURN_IF_ERROR(cluster->AddNode(std::move(options)).status());
  }
  MDOS_RETURN_IF_ERROR(cluster->StartAll());
  return cluster;
}

}  // namespace mdos::testutil
