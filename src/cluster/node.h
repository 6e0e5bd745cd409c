// Node — one simulated compute node of the disaggregated rack.
//
// Assembles the full per-node software stack of the paper's system:
//   * a slab of DRAM registered with the ThymesisFlow fabric, whose
//     disaggregated window is exported as the store's object pool,
//   * the Plasma store serving local clients over a Unix socket,
//   * the RPC server (gRPC stand-in) exposing the store to peer stores,
//   * the peer registry (DistHooks) with the usage tracker for
//     distributed pin bookkeeping, plus the peer health monitor
//     (heartbeat + failure streaks, see dist/remote_registry.h).
//
// Failure testing: Kill() tears the store and RPC server down abruptly —
// no pin release, no notice to peers — simulating a crash; Restart()
// rebuilds the whole software stack on the SAME fabric identity (node
// id, pool region, shared-index region) and the same RPC port, so
// surviving peers' channels redial into the new incarnation without any
// re-configuration. The restarted store comes up empty (a crash loses
// pool contents' table state), exactly like a real store restart.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "common/mutex.h"
#include "common/status.h"
#include "dist/remote_registry.h"
#include "dist/service.h"
#include "plasma/client.h"
#include "plasma/store.h"
#include "rpc/server.h"
#include "tf/fabric.h"

namespace mdos::cluster {

struct NodeOptions {
  std::string name = "node";
  // Memory pool exported to the fabric and managed by the store.
  uint64_t pool_size = 256ull << 20;
  plasma::AllocatorKind allocator = plasma::AllocatorKind::kFirstFit;
  // Disk spill tier for this node's store (empty disables it); see
  // StoreOptions::spill_dir.
  std::string spill_dir;
  bool check_global_uniqueness = true;
  bool pin_remote_objects = true;
  // Shared-index extension (paper §V-B): publish sealed objects into a
  // table in disaggregated memory that peers read directly instead of
  // calling Plasma.Lookup.
  bool enable_shared_index = false;
  uint64_t shared_index_bytes = 1 << 20;  // ~16k slots
  // Mapped data plane (zero-RPC remote reads): export a generation table
  // next to the pool and hand it to the store (Store::SetGenerationTable),
  // which then serves remote Gets as generation-stamped descriptors;
  // clients copy through their own fabric mapping with a seqlock-style
  // re-check (plasma/generation_table.h).
  bool mapped_remote_reads = false;
  uint64_t generation_table_bytes = 1 << 16;  // ~8k slots
  // k-way replication (StoreOptions::replication_factor): every sealed
  // object on this node is fanned out until k nodes hold a copy, and the
  // peer-death path re-heals the count back to k. 1 disables it.
  uint32_t replication_factor = 1;
  dist::RegistryOptions registry;
};

class Node {
 public:
  static Result<std::unique_ptr<Node>> Create(tf::Fabric* fabric,
                                              const NodeOptions& options);
  ~Node();
  Node(const Node&) = delete;
  Node& operator=(const Node&) = delete;

  // Starts the store event loop, the RPC server, and (when the registry
  // has a heartbeat interval) the peer health monitor.
  Status Start() EXCLUDES(lifecycle_mutex_);
  // Releases remote pins and stops both services. Idempotent.
  void Stop() EXCLUDES(lifecycle_mutex_);

  // Abrupt crash: stops everything WITHOUT releasing pins or notifying
  // peers. Survivors find out through their health machines. Idempotent.
  void Kill() EXCLUDES(lifecycle_mutex_);
  // Rebuilds the whole per-node stack (store, registry, RPC service) on
  // the same fabric identity and the same RPC port, then starts it.
  // Only valid after Kill()/Stop().
  Status Restart() EXCLUDES(lifecycle_mutex_);

  // Connects this node's store to a peer's RPC endpoint.
  Status ConnectPeer(const Node& peer);

  // Opens a Plasma client on this node (fabric-routed buffer access).
  Result<std::unique_ptr<plasma::PlasmaClient>> CreateClient(
      const std::string& client_name = "client");

  tf::NodeId id() const { return node_id_; }
  const std::string& name() const { return options_.name; }
  bool started() const EXCLUDES(lifecycle_mutex_) {
    MutexLock lock(lifecycle_mutex_);
    return started_;
  }
  plasma::Store& store() { return *store_; }
  dist::RemoteStoreRegistry& registry() { return *registry_; }
  rpc::RpcServer& rpc_server() { return *rpc_server_; }
  uint16_t rpc_port() const { return rpc_port_; }
  tf::RegionId pool_region() const { return pool_region_; }

 private:
  Node(tf::Fabric* fabric, NodeOptions options);

  // Constructs store + registry + service + RPC server from the already
  // registered fabric identity. Called by Create and Restart.
  Status BuildStack();

  tf::Fabric* fabric_;
  NodeOptions options_;
  tf::NodeId node_id_ = 0;
  tf::RegionId pool_region_ = 0;
  tf::RegionId index_region_ = UINT32_MAX;
  tf::RegionId gen_region_ = UINT32_MAX;
  std::unique_ptr<plasma::SharedIndexWriter> index_writer_;
  std::unique_ptr<plasma::GenerationTable> gen_table_;
  // Epoch fed into the generation table; incremented by every BuildStack
  // so a restarted incarnation's counters can never validate descriptors
  // stamped by the previous one.
  uint64_t gen_epoch_ = 0;
  std::unique_ptr<plasma::Store> store_;
  std::unique_ptr<dist::RemoteStoreRegistry> registry_;
  std::unique_ptr<dist::StoreService> service_;
  std::unique_ptr<rpc::RpcServer> rpc_server_;
  // 0 until the first Start; Restart re-binds the same port so peers'
  // channels redial into the new incarnation.
  uint16_t rpc_port_ = 0;
  // Serializes Start/Stop/Kill/Restart against each other and against
  // started() probes from test/driver threads. Never held across the
  // service start/stop calls themselves — only across the flag flips —
  // so handlers and shard threads can't deadlock back into it.
  mutable Mutex lifecycle_mutex_;
  bool started_ GUARDED_BY(lifecycle_mutex_) = false;
};

}  // namespace mdos::cluster
