// RemoteStoreRegistry — a store's view of its peer stores (DistHooks).
//
// Implements the distributed half of §IV-A2: every store keeps one RPC
// channel per peer (the paper's gRPC stubs), resolves unknown object ids
// by asking the peers, and probes peers for id uniqueness on Create.
// The §V-B shared index is layered in front of the RPC path: when a peer
// exports its index region (Hello handshake), lookups read the peer's
// table in disaggregated memory and fall back to RPC only on a miss.
//
// Peer failure handling: each peer carries a health state machine
//
//     healthy ──failure──▶ suspect ──streak ≥ dead threshold──▶ dead
//        ▲                    │                                   │
//        └────any success─────┴──────ping success (heartbeat)─────┘
//
// driven by per-call failure streaks and by a Plasma.Ping heartbeat loop
// (StartHealthMonitor). Data-path RPCs (lookup/probe/pin/unpin) skip
// dead peers entirely — a dead peer costs zero RPCs per call, not an
// rpc_timeout_ms stall — while the heartbeat keeps pinging it so a
// restarted peer is re-admitted automatically (the channels redial with
// backoff, see rpc/channel.h). Declaring a peer dead also drops our pins
// on it from the usage tracker, unmaps its index and generation tables,
// and fires the on-peer-dead callback (the cluster layer wires it to
// Store::ReleasePinsForPeer so the corpse stops blocking eviction).
//
// Completion model: every DistHooks call returns at once with a future.
// Peer RPCs go out on pipelined channels that share one I/O thread (the
// registry's rpc::ChannelLoop, which owns every peer socket); independent
// calls are in flight together — the uniqueness probe asks every live
// peer at once, a Delete's replica drops leave together — and their
// outcomes complete the futures on that thread. A call that needs no
// peer (zero peers, an index hit, a dead home) returns an
// already-complete future.
//
// Thread-safety: the DistHooks calls may come concurrently from several
// of the store's shard threads (the sharded core resolves remote ids
// from whichever shard homes the requesting connection); AddPeer/
// ReleaseAllPins from control threads; the heartbeat runs its own
// thread; RPC outcomes (health transitions, hedging, the death handler)
// run on the I/O thread. Peer-list and health access is mutex-guarded,
// the usage tracker carries its own mutex, and no future is completed
// while the registry mutex is held.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common/deadline.h"
#include "common/future.h"
#include "common/mutex.h"
#include "common/status.h"
#include "dist/messages.h"
#include "dist/usage_tracker.h"
#include "net/fault_injector.h"
#include "plasma/generation_table.h"
#include "plasma/shared_index.h"
#include "plasma/store.h"
#include "rpc/channel.h"
#include "tf/fabric.h"

namespace mdos::dist {

// Per-peer health states (encoded as PeerStatsEntry::state).
enum class PeerState : uint8_t {
  kHealthy = 0,
  kSuspect = 1,
  kDead = 2,
};

struct RegistryOptions {
  // Injected per-RPC latency modelling the data-centre LAN.
  int64_t simulated_rtt_ns = 0;
  // Bound on every peer RPC.
  uint64_t rpc_timeout_ms = 5000;
  // Required for the shared-index read path (attaching peer regions).
  tf::Fabric* fabric = nullptr;

  // ---- failure handling ---------------------------------------------------
  // Heartbeat period for StartHealthMonitor; 0 disables the loop. The
  // heartbeat is the ONLY path that still talks to a dead peer, so with
  // it disabled health is driven by data-path failure streaks alone and
  // a peer declared dead stays dead until AddPeer re-meshes it (the
  // restarted peer's own ConnectPeer does exactly that).
  uint64_t heartbeat_interval_ms = 250;
  // Ping deadline — heartbeats probe liveness, so they fail much faster
  // than data RPCs.
  uint64_t ping_timeout_ms = 500;
  // Consecutive failures that demote a peer healthy → suspect and
  // suspect → dead.
  uint32_t suspect_after_failures = 1;
  uint32_t dead_after_failures = 3;
  // Channel redial/backoff policy (see rpc/channel.h).
  uint32_t redial_backoff_min_ms = 10;
  uint32_t redial_backoff_max_ms = 1000;

  // ---- gray-failure handling ----------------------------------------------
  // Hedged replica reads: when the ranked-first peer's lookup RPC stays
  // quiet past an EWMA-derived delay, the same request is fired at the
  // next-ranked peer and the first success wins. Tames tail latency
  // under a slow-but-alive (gray) replica without waiting for the
  // health machine to demote it.
  bool enable_hedged_reads = true;
  // Hedge delay = clamp(multiplier * peer latency EWMA, min, max). A
  // peer with no latency sample yet hedges only at the max delay.
  double hedge_delay_multiplier = 3.0;
  uint64_t hedge_delay_min_ms = 1;
  uint64_t hedge_delay_max_ms = 100;
  // Global cap on concurrently outstanding hedge attempts (the hedge
  // budget): past it a slow primary is waited out instead of hedged.
  uint32_t hedge_max_inflight = 16;
  // Optional seeded network fault injection, installed on every peer
  // channel (owned by the cluster/test harness, must outlive the
  // registry).
  net::FaultInjector* fault_injector = nullptr;
};

struct RegistryStats {
  uint64_t lookup_rpcs = 0;   // Plasma.Lookup calls issued
  uint64_t probe_rpcs = 0;    // Plasma.Probe calls issued
  uint64_t pin_rpcs = 0;      // Plasma.Pin + Plasma.Unpin calls issued
  uint64_t failed_rpcs = 0;   // connectivity failures (feeds the health
                              // machine; application errors don't count)
  uint64_t index_hits = 0;    // ids resolved by reading a peer's index
  uint64_t heartbeats = 0;    // Plasma.Ping calls issued
  uint64_t peers_died = 0;    // healthy/suspect → dead transitions
  uint64_t peers_recovered = 0;  // suspect/dead → healthy transitions
  // Pins that failed: the location went stale or its home is gone.
  uint64_t stale_pins_detected = 0;
  // k-way replication: Plasma.Replicate + Plasma.ReplicaDrop calls issued.
  uint64_t replicate_rpcs = 0;
  // End-to-end deadlines & hedged reads (gray-failure handling).
  uint64_t deadline_exhausted = 0;   // ops whose budget ran out here
  uint64_t hedged_reads = 0;         // backup replica reads fired
  uint64_t hedge_wins = 0;           // hedges that answered first
  uint64_t hedge_budget_denied = 0;  // hedges refused by the global cap
};

class RemoteStoreRegistry : public plasma::DistHooks {
 public:
  explicit RemoteStoreRegistry(uint32_t self_node,
                               RegistryOptions options = {});
  ~RemoteStoreRegistry() override;

  // Connects to a peer store's RPC endpoint and performs the Hello
  // handshake. Rejects self-peering; re-adding a known node replaces its
  // channel (and resets its health to healthy — used after a restart).
  Status AddPeer(const std::string& host, uint16_t port);

  size_t peer_count() const EXCLUDES(mutex_);
  std::vector<uint32_t> peer_nodes() const EXCLUDES(mutex_);
  PeerState peer_state(uint32_t node_id) const EXCLUDES(mutex_);

  // Starts/stops the Plasma.Ping heartbeat loop. Start is a no-op when
  // heartbeat_interval_ms is 0 or the loop already runs; Stop is
  // idempotent and also runs from the destructor.
  void StartHealthMonitor() EXCLUDES(heartbeat_mutex_);
  void StopHealthMonitor() EXCLUDES(heartbeat_mutex_);

  // Invoked (outside the registry mutex, from whichever thread observed
  // the failure — usually the I/O thread, so it must not block) whenever
  // a peer transitions to dead. The cluster layer wires this to
  // Store::ReleasePinsForPeer.
  void SetPeerDeathHandler(std::function<void(uint32_t)> handler) {
    on_peer_dead_ = std::move(handler);
  }

  // Unpins everything this node still holds and waits for the unpins
  // (shutdown path; never call it on an event loop). Idempotent.
  void ReleaseAllPins();

  const UsageTracker& usage() const { return usage_; }
  RegistryStats stats() const EXCLUDES(mutex_);

  // ---- DistHooks (called by the owning store) -------------------------

  Future<plasma::DistHooks::Locations> LookupRemote(
      const std::vector<ObjectId>& ids, Deadline deadline) override;
  Future<bool> IdKnownRemotely(const ObjectId& id,
                               Deadline deadline) override;
  Future<Status> PinRemote(const ObjectId& id,
                           const plasma::RemoteObjectLocation& loc,
                           Deadline deadline) override;
  Future<Status> UnpinRemote(const ObjectId& id,
                             const plasma::RemoteObjectLocation& loc) override;
  std::vector<plasma::PeerStatsEntry> PeerHealth() override;
  plasma::DistHooks::RobustnessCounters GetRobustnessCounters() override;

  // Deadline-less conveniences (control paths and tests): unbounded
  // budget, same behavior as before deadlines existed.
  Future<plasma::DistHooks::Locations> LookupRemote(
      const std::vector<ObjectId>& ids) {
    return LookupRemote(ids, Deadline::Infinite());
  }
  Future<bool> IdKnownRemotely(const ObjectId& id) {
    return IdKnownRemotely(id, Deadline::Infinite());
  }
  Future<Status> PinRemote(const ObjectId& id,
                           const plasma::RemoteObjectLocation& loc) {
    return PinRemote(id, loc, Deadline::Infinite());
  }
  // Replication fan-out: asks up to `copies_wanted` live peers not in
  // `exclude` to pull the object from `source` and check it against
  // `crc`, one at a time in preference order (healthy peers with the
  // lowest observed RPC latency, EWMA, first), until enough accepted.
  // Completes with the acceptors' node ids.
  Future<std::vector<uint32_t>> ReplicateObject(
      const ObjectId& id, const plasma::RemoteObjectLocation& source,
      uint32_t crc, uint32_t copies_wanted,
      const std::vector<uint32_t>& exclude, uint32_t origin,
      uint32_t desired) override;
  Future<Status> DropReplicas(const ObjectId& id,
                              const std::vector<uint32_t>& holders) override;

 private:
  struct Peer {
    uint32_t node_id = 0;
    uint32_t pool_region = UINT32_MAX;
    std::string store_name;
    std::shared_ptr<rpc::RpcChannel> channel;
    // Shared-index read path (set when the peer exports an index region
    // and a fabric is configured). The attachment owns the mapping the
    // reader points into.
    std::optional<tf::AttachedRegion> index_attachment;
    std::optional<plasma::SharedIndexReader> index_reader;
    // Mapped data plane (set when the peer exports a generation table):
    // index-path lookups stamp descriptors with the peer's current
    // generation. Reset together with the index mapping when the peer
    // dies, so a restarted incarnation is never read through a stale
    // attachment.
    uint32_t gen_region = UINT32_MAX;
    std::optional<tf::AttachedRegion> gen_attachment;
    std::optional<plasma::GenerationReader> gen_reader;
    // Health machine. Guarded by the registry mutex; the guard cannot be
    // spelled as GUARDED_BY here (the analysis has no alias tracking
    // across shared_ptr<Peer> copies), so the contract is enforced at
    // the method layer instead: every mutation happens inside a
    // REQUIRES(mutex_) helper or under a MutexLock in this class.
    PeerState state = PeerState::kHealthy;
    uint32_t failure_streak = 0;
    uint64_t failed_rpcs = 0;
    uint64_t heartbeats = 0;
    int64_t last_ok_ns = 0;  // monotonic time of the last successful call
    // EWMA of observed RPC round-trip latency (same guard contract as
    // the health fields). 0 = no sample yet. Replica placement and
    // replica-read selection prefer the lowest value among healthy
    // peers.
    int64_t ewma_latency_ns = 0;
  };

  std::vector<std::shared_ptr<Peer>> SnapshotPeers() const
      EXCLUDES(mutex_);
  // Peers data-path RPCs may talk to (dead peers are skipped).
  std::vector<std::shared_ptr<Peer>> SnapshotLivePeers() const
      EXCLUDES(mutex_);
  // Peer lookup that treats dead peers as absent (one lock, one scan —
  // the pin/unpin hot path).
  std::shared_ptr<Peer> FindLivePeer(uint32_t node_id) const
      EXCLUDES(mutex_);

  // Folds one call outcome into the peer's health machine and performs
  // the resulting transition work (death cleanup).
  void RecordPeerResult(const std::shared_ptr<Peer>& peer, bool ok)
      EXCLUDES(mutex_);
  // Folds one successful call's round trip into the peer's latency EWMA.
  void RecordPeerLatency(const std::shared_ptr<Peer>& peer,
                         int64_t sample_ns) EXCLUDES(mutex_);
  // Live peers ranked for replica placement / replica-read selection:
  // healthy before suspect, then by latency EWMA (no sample ranks
  // last), node id as the tiebreak.
  std::vector<std::shared_ptr<Peer>> SnapshotRankedPeers() const
      EXCLUDES(mutex_);

  // One data-path RPC, bounded by both the registry's per-RPC timeout
  // and the operation's remaining end-to-end budget. An infinite op
  // deadline keeps the legacy single-attempt semantics (fail fast feeds
  // the health machine); a finite one uses the channel's deadline path,
  // which retries transient transport faults within the clamped budget
  // and stamps the remaining milliseconds on every attempt.
  template <typename ReplyT, typename RequestT>
  Future<Result<ReplyT>> PeerCall(const std::shared_ptr<Peer>& peer,
                                  const std::string& method,
                                  const RequestT& request,
                                  Deadline deadline) {
    if (deadline.infinite()) {
      return peer->channel->template CallTypedAsync<ReplyT>(
          method, request, options_.rpc_timeout_ms);
    }
    Deadline bound = Deadline::Min(
        deadline,
        Deadline::AfterMs(static_cast<int64_t>(options_.rpc_timeout_ms)));
    return peer->channel->template CallTypedAsync<ReplyT>(method, request,
                                                          bound);
  }

  // EWMA-derived hedge trigger delay for `peer` (ns), clamped to the
  // configured [min, max] window; a peer with no sample hedges only at
  // the max delay (cold channels are slow for benign reasons).
  int64_t HedgeDelayNs(const std::shared_ptr<Peer>& peer) const
      EXCLUDES(mutex_);

  // The RPC half of one LookupRemote: hedged waves over the ranked
  // peers, driven on the I/O thread (see LookupRemote).
  struct LookupOp;
  void StartLookupWave(const std::shared_ptr<LookupOp>& op);
  void LaunchLookupAttempt(const std::shared_ptr<LookupOp>& op,
                           bool is_hedge);
  void OnHedgeDelay(const std::shared_ptr<LookupOp>& op, uint64_t wave);
  void SettleLookupWave(const std::shared_ptr<LookupOp>& op);
  void FinishLookup(const std::shared_ptr<LookupOp>& op);

  // A replication push ranks its candidates when it starts and asks
  // them in order (PushNextReplica) until enough accepted. A push
  // carries only the object's location, so pushes run concurrently.
  struct ReplicaPush;
  void PushNextReplica(const std::shared_ptr<ReplicaPush>& push);

  // Death bookkeeping, run outside the mutex.
  void HandlePeerDeath(uint32_t node_id);

  void HeartbeatLoop() EXCLUDES(heartbeat_mutex_);
  // One heartbeat round: ping every peer (including dead ones — that is
  // the recovery path).
  void PingAllPeers() EXCLUDES(mutex_);

  const uint32_t self_node_;
  const RegistryOptions options_;
  UsageTracker usage_;
  std::function<void(uint32_t)> on_peer_dead_;
  // The I/O thread owning every peer socket (shared by the channels).
  std::shared_ptr<rpc::ChannelLoop> loop_;
  // Set by the destructor before the loop stops: the calls it fails then
  // must not move the health machine.
  std::atomic<bool> shutting_down_{false};

  mutable Mutex mutex_;
  std::vector<std::shared_ptr<Peer>> peers_ GUARDED_BY(mutex_);
  RegistryStats stats_ GUARDED_BY(mutex_);

  // Heartbeat thread state. heartbeat_mutex_ is a leaf lock: never
  // taken with mutex_ held.
  Mutex heartbeat_mutex_ ACQUIRED_AFTER(mutex_);
  std::thread heartbeat_thread_ GUARDED_BY(heartbeat_mutex_);
  CondVar heartbeat_cv_;
  bool heartbeat_running_ GUARDED_BY(heartbeat_mutex_) = false;

  // Hedge budget: attempts currently in flight beyond each wave's
  // primary. Bounded by options_.hedge_max_inflight.
  std::atomic<uint32_t> hedge_inflight_{0};
};

}  // namespace mdos::dist
