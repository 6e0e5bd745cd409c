#include "dist/remote_registry.h"

#include <algorithm>
#include <chrono>
#include <numeric>

#include "common/clock.h"
#include "common/log.h"

namespace mdos::dist {

namespace {

// A connectivity failure feeds the health machine; an application-level
// error (KeyError from an unpin race, Invalid, ...) proves the peer is
// alive and healthy enough to reject us.
bool IsConnectivityError(const Status& st) {
  switch (st.code()) {
    case StatusCode::kIoError:
    case StatusCode::kTimeout:
    case StatusCode::kNotConnected:
    case StatusCode::kProtocolError:
    case StatusCode::kUnavailable:
    // A deadline-bounded call that exhausted its budget never got an
    // answer — indistinguishable from a slow/partitioned peer, and a
    // server-side shed is itself evidence of gray failure there.
    case StatusCode::kDeadlineExceeded:
      return true;
    default:
      return false;
  }
}

const char* PeerStateName(PeerState state) {
  switch (state) {
    case PeerState::kHealthy: return "healthy";
    case PeerState::kSuspect: return "suspect";
    case PeerState::kDead: return "dead";
  }
  return "?";
}

// Completes with OK once `pending` arrivals came in (a fan-out whose
// answers matter only as "all done").
struct FanIn {
  explicit FanIn(size_t n) : pending(n) {}
  void Arrive() {
    if (pending.fetch_sub(1) == 1) done.Set(Status::OK());
  }
  std::atomic<size_t> pending;
  Promise<Status> done;
};

}  // namespace

// The RPC half of one LookupRemote. Lives on the I/O thread: every field
// below `done` is touched only there (outcomes of calls that fail fast
// arrive inline, on the same thread).
struct RemoteStoreRegistry::LookupOp {
  std::vector<ObjectId> ids;
  plasma::DistHooks::Locations out;
  std::vector<size_t> unresolved;
  std::vector<std::shared_ptr<Peer>> peers;  // ranked
  Deadline deadline;
  Promise<plasma::DistHooks::Locations> done;

  size_t next_peer = 0;
  bool finished = false;
  // The wave in flight: its request, how many attempts it launched,
  // their outcomes, and its hedge timer. `wave` numbers the waves so an
  // abandoned wave's late outcome only feeds the health machine.
  uint64_t wave = 0;
  std::shared_ptr<const LookupRequest> request;
  uint32_t launched = 0;
  struct Outcome {
    Result<LookupReply> reply;
    bool is_hedge = false;
  };
  std::vector<Outcome> outcomes;
  bool hedge_fired = false;
  rpc::ChannelLoop::TimerId hedge_timer;
};

// A replication push: candidates are tried one at a time in rank order.
struct RemoteStoreRegistry::ReplicaPush {
  ReplicateRequest request;
  std::vector<std::shared_ptr<Peer>> candidates;
  std::vector<uint32_t> exclude;
  std::vector<uint32_t> accepted;
  uint32_t wanted = 0;
  size_t next = 0;
  Promise<std::vector<uint32_t>> done;
};

RemoteStoreRegistry::RemoteStoreRegistry(uint32_t self_node,
                                         RegistryOptions options)
    : self_node_(self_node),
      options_(options),
      loop_(std::make_shared<rpc::ChannelLoop>()) {}

RemoteStoreRegistry::~RemoteStoreRegistry() {
  StopHealthMonitor();
  // Stopping the loop fails every call still in flight; the futures
  // built on them complete on this thread, while the registry's state is
  // still intact.
  shutting_down_.store(true);
  loop_->Stop();
}

Status RemoteStoreRegistry::AddPeer(const std::string& host,
                                    uint16_t port) {
  rpc::ChannelOptions channel_options;
  channel_options.simulated_rtt_ns = options_.simulated_rtt_ns;
  channel_options.redial_backoff_min_ms = options_.redial_backoff_min_ms;
  channel_options.redial_backoff_max_ms = options_.redial_backoff_max_ms;
  MDOS_ASSIGN_OR_RETURN(auto channel,
                        rpc::RpcChannel::Connect(host, port, channel_options,
                                                 loop_));

  HelloRequest request;
  request.node_id = self_node_;
  MDOS_ASSIGN_OR_RETURN(
      HelloReply reply,
      channel->CallTyped<HelloReply>(kMethodHello, request,
                                     options_.rpc_timeout_ms));
  if (reply.node_id == self_node_) {
    return Status::Invalid("refusing to peer with self (node " +
                           std::to_string(self_node_) + ")");
  }

  // Slide the (cluster-owned) fault injector under this channel now
  // that the peer's node id is known: from here on, every call on the
  // self -> peer link is subject to the injected faults, the Hello
  // handshake above deliberately was not (the mesh is wired before the
  // chaos schedule starts flipping links).
  if (options_.fault_injector != nullptr) {
    channel->SetFaultInjector(options_.fault_injector, self_node_,
                              reply.node_id);
  }

  auto peer = std::make_shared<Peer>();
  peer->node_id = reply.node_id;
  peer->pool_region = reply.pool_region;
  peer->store_name = reply.store_name;
  peer->channel = std::move(channel);
  peer->last_ok_ns = MonotonicNanos();

  // Shared-index extension: attach the peer's exported index table so
  // lookups can read it directly over the fabric instead of calling RPC.
  if (reply.index_region != UINT32_MAX && options_.fabric != nullptr) {
    auto attached =
        options_.fabric->Attach(self_node_, reply.index_region);
    if (attached.ok()) {
      peer->index_attachment.emplace(std::move(attached).value());
      auto reader = plasma::SharedIndexReader::Open(
          peer->index_attachment->unsafe_data(),
          peer->index_attachment->size(),
          options_.fabric->config().remote);
      if (reader.ok()) {
        peer->index_reader.emplace(std::move(reader).value());
      } else {
        MDOS_LOG_WARN << "peer " << reply.node_id
                      << " exported an unreadable index: "
                      << reader.status();
        peer->index_attachment.reset();
      }
    }
  }

  // Mapped data plane: attach the peer's generation table so index-path
  // lookups can stamp their descriptors.
  if (reply.gen_region != UINT32_MAX && options_.fabric != nullptr) {
    auto attached = options_.fabric->Attach(self_node_, reply.gen_region);
    if (attached.ok()) {
      peer->gen_attachment.emplace(std::move(attached).value());
      auto reader = plasma::GenerationReader::Open(
          peer->gen_attachment->unsafe_data(),
          peer->gen_attachment->size(), options_.fabric->config().remote);
      if (reader.ok()) {
        peer->gen_region = reply.gen_region;
        peer->gen_reader.emplace(std::move(reader).value());
      } else {
        MDOS_LOG_WARN << "peer " << reply.node_id
                      << " exported an unreadable generation table: "
                      << reader.status();
        peer->gen_attachment.reset();
      }
    }
  }

  MutexLock lock(mutex_);
  peers_.erase(std::remove_if(peers_.begin(), peers_.end(),
                              [&](const std::shared_ptr<Peer>& p) {
                                return p->node_id == reply.node_id;
                              }),
               peers_.end());
  peers_.push_back(std::move(peer));
  return Status::OK();
}

size_t RemoteStoreRegistry::peer_count() const {
  MutexLock lock(mutex_);
  return peers_.size();
}

std::vector<uint32_t> RemoteStoreRegistry::peer_nodes() const {
  MutexLock lock(mutex_);
  std::vector<uint32_t> nodes;
  nodes.reserve(peers_.size());
  for (const auto& peer : peers_) nodes.push_back(peer->node_id);
  return nodes;
}

PeerState RemoteStoreRegistry::peer_state(uint32_t node_id) const {
  MutexLock lock(mutex_);
  for (const auto& peer : peers_) {
    if (peer->node_id == node_id) return peer->state;
  }
  return PeerState::kDead;  // unknown peers are as good as dead
}

RegistryStats RemoteStoreRegistry::stats() const {
  MutexLock lock(mutex_);
  return stats_;
}

std::vector<std::shared_ptr<RemoteStoreRegistry::Peer>>
RemoteStoreRegistry::SnapshotPeers() const {
  MutexLock lock(mutex_);
  return peers_;
}

std::vector<std::shared_ptr<RemoteStoreRegistry::Peer>>
RemoteStoreRegistry::SnapshotLivePeers() const {
  MutexLock lock(mutex_);
  std::vector<std::shared_ptr<Peer>> live;
  live.reserve(peers_.size());
  for (const auto& peer : peers_) {
    if (peer->state != PeerState::kDead) live.push_back(peer);
  }
  return live;
}

std::vector<std::shared_ptr<RemoteStoreRegistry::Peer>>
RemoteStoreRegistry::SnapshotRankedPeers() const {
  MutexLock lock(mutex_);
  std::vector<std::shared_ptr<Peer>> live;
  live.reserve(peers_.size());
  for (const auto& peer : peers_) {
    if (peer->state != PeerState::kDead) live.push_back(peer);
  }
  // Health first (healthy beats suspect), then observed latency (EWMA;
  // no sample ranks behind any sample), node id as the deterministic
  // tiebreak. Sorted under the registry mutex — the health and latency
  // fields follow the Peer guard contract.
  std::sort(live.begin(), live.end(),
            [](const std::shared_ptr<Peer>& a,
               const std::shared_ptr<Peer>& b) {
              if (a->state != b->state) {
                return static_cast<uint8_t>(a->state) <
                       static_cast<uint8_t>(b->state);
              }
              int64_t la = a->ewma_latency_ns > 0 ? a->ewma_latency_ns
                                                  : INT64_MAX;
              int64_t lb = b->ewma_latency_ns > 0 ? b->ewma_latency_ns
                                                  : INT64_MAX;
              if (la != lb) return la < lb;
              return a->node_id < b->node_id;
            });
  return live;
}

void RemoteStoreRegistry::RecordPeerLatency(
    const std::shared_ptr<Peer>& peer, int64_t sample_ns) {
  if (sample_ns <= 0) return;
  MutexLock lock(mutex_);
  peer->ewma_latency_ns =
      peer->ewma_latency_ns > 0
          ? (3 * peer->ewma_latency_ns + sample_ns) / 4
          : sample_ns;
}

std::shared_ptr<RemoteStoreRegistry::Peer>
RemoteStoreRegistry::FindLivePeer(uint32_t node_id) const {
  MutexLock lock(mutex_);
  for (const auto& peer : peers_) {
    if (peer->node_id != node_id) continue;
    return peer->state == PeerState::kDead ? nullptr : peer;
  }
  return nullptr;
}

void RemoteStoreRegistry::RecordPeerResult(
    const std::shared_ptr<Peer>& peer, bool ok) {
  if (shutting_down_.load()) return;
  bool died = false;
  bool recovered = false;
  {
    MutexLock lock(mutex_);
    if (ok) {
      peer->failure_streak = 0;
      peer->last_ok_ns = MonotonicNanos();
      if (peer->state != PeerState::kHealthy) {
        recovered = true;
        peer->state = PeerState::kHealthy;
        ++stats_.peers_recovered;
      }
      // A successful call while flagged dead can't happen (dead peers are
      // skipped by the data path); the heartbeat is the only caller that
      // still reaches them, which is exactly the recovery path above.
    } else {
      ++peer->failed_rpcs;
      ++peer->failure_streak;
      ++stats_.failed_rpcs;
      PeerState next = peer->state;
      if (peer->failure_streak >= options_.dead_after_failures) {
        next = PeerState::kDead;
      } else if (peer->failure_streak >= options_.suspect_after_failures &&
                 peer->state == PeerState::kHealthy) {
        next = PeerState::kSuspect;
      }
      if (next != peer->state) {
        MDOS_LOG_INFO << "node " << self_node_ << ": peer "
                      << peer->node_id << " "
                      << PeerStateName(peer->state) << " -> "
                      << PeerStateName(next) << " (streak "
                      << peer->failure_streak << ")";
        if (next == PeerState::kDead) {
          died = true;
          ++stats_.peers_died;
        }
        peer->state = next;
      }
    }
  }
  if (died) HandlePeerDeath(peer->node_id);
  if (recovered) {
    MDOS_LOG_INFO << "node " << self_node_ << ": peer " << peer->node_id
                  << " recovered";
  }
}

void RemoteStoreRegistry::HandlePeerDeath(uint32_t node_id) {
  // Drop the fabric mappings of the corpse's index and generation
  // tables: a restarted peer re-exports fresh regions through a new
  // Hello handshake, and reading the previous incarnation through a
  // stale attachment could validate descriptors against dead memory.
  {
    MutexLock lock(mutex_);
    for (auto& peer : peers_) {
      if (peer->node_id != node_id) continue;
      peer->index_reader.reset();
      peer->index_attachment.reset();
      peer->gen_reader.reset();
      peer->gen_attachment.reset();
      peer->gen_region = UINT32_MAX;
    }
  }
  // Pins we hold on the dead peer have no remote state left to release.
  uint64_t dropped = usage_.DropPinsForNode(node_id);
  if (dropped > 0) {
    MDOS_LOG_INFO << "node " << self_node_ << ": dropped " << dropped
                  << " pins held on dead peer " << node_id;
  }
  // Pins the dead peer held on us must stop blocking eviction — the
  // cluster layer wires this to Store::ReleasePinsForPeer.
  if (on_peer_dead_) on_peer_dead_(node_id);
}

int64_t RemoteStoreRegistry::HedgeDelayNs(
    const std::shared_ptr<Peer>& peer) const {
  int64_t ewma_ns;
  {
    MutexLock lock(mutex_);
    ewma_ns = peer->ewma_latency_ns;
  }
  const int64_t min_ns =
      static_cast<int64_t>(options_.hedge_delay_min_ms) * 1'000'000;
  const int64_t max_ns = std::max<int64_t>(
      static_cast<int64_t>(options_.hedge_delay_max_ms) * 1'000'000,
      min_ns);
  if (ewma_ns <= 0) return max_ns;
  const double scaled =
      static_cast<double>(ewma_ns) * options_.hedge_delay_multiplier;
  const auto delay = static_cast<int64_t>(scaled);
  return std::min(std::max(delay, min_ns), max_ns);
}

Future<plasma::DistHooks::Locations> RemoteStoreRegistry::LookupRemote(
    const std::vector<ObjectId>& ids, Deadline deadline) {
  plasma::DistHooks::Locations out(ids.size());
  std::vector<size_t> unresolved(ids.size());
  std::iota(unresolved.begin(), unresolved.end(), size_t{0});

  // Dead peers are skipped outright: no RPC, no timeout stall. The
  // heartbeat loop is responsible for noticing a resurrection. Peers are
  // visited in replica-selection order (healthy before suspect, lowest
  // observed latency first), so when an object has k live replicas the
  // first index/RPC hit IS the preferred copy — and a killed replica's
  // peer simply is not in the snapshot, which is the transparent
  // dead-replica failover.
  auto peers = SnapshotRankedPeers();

  // 1. Shared index in disaggregated memory (§V-B extension): probe every
  // peer's table before falling back to RPC. The probes for distinct ids
  // are independent loads, so the whole sweep is charged to the latency
  // model as one pipelined wave (tf::AccessBatch) rather than a serial
  // base latency per probe — this is what keeps a batched mapped Get
  // near local Get latency.
  for (const auto& peer : peers) {
    if (!peer->index_reader.has_value() || unresolved.empty()) continue;
    std::vector<size_t> still_unresolved;
    uint64_t batch_index_hits = 0;
    tf::AccessBatch wave(options_.fabric != nullptr
                             ? options_.fabric->config().remote
                             : tf::LatencyParams{});
    const bool have_gen = peer->gen_reader.has_value();
    // One epoch sample covers the sweep: it precedes every probe, and a
    // restart between sample and probe bumps the epoch the client
    // re-checks after its copy.
    const uint64_t epoch =
        have_gen ? peer->gen_reader->Epoch(&wave) : 0;
    for (size_t i : unresolved) {
      // Generation sample BEFORE the index probe. Writers withdraw the
      // index entry first and bump second, so an index hit proves the
      // bump of any overlapping destructive transition lands after this
      // sample — the reader's post-copy re-check then catches it.
      // Sampling after the probe would let a transition slip between
      // probe and sample and stamp a fresh generation onto a dead
      // offset.
      uint64_t gen = 0;
      uint64_t slot = 0;
      if (have_gen) {
        slot = peer->gen_reader->SlotFor(ids[i]);
        gen = peer->gen_reader->GenerationReader::Read(slot, &wave);
      }
      auto indexed = peer->index_reader->Lookup(ids[i], &wave);
      if (!indexed.has_value()) {
        still_unresolved.push_back(i);
        continue;
      }
      plasma::RemoteObjectLocation loc;
      loc.home_node = peer->node_id;
      loc.home_region = peer->pool_region;
      loc.offset = indexed->offset;
      loc.data_size = indexed->data_size;
      loc.metadata_size = indexed->metadata_size;
      if (have_gen) {
        loc.generation = gen;
        loc.gen_slot = slot;
        loc.gen_region = peer->gen_region;
        loc.gen_epoch = epoch;
      }
      out[i] = loc;
      ++batch_index_hits;
    }
    if (batch_index_hits > 0) {
      // One stats update per batch, not one lock round trip per hit.
      MutexLock lock(mutex_);
      stats_.index_hits += batch_index_hits;
    }
    unresolved.swap(still_unresolved);
  }

  // 2. Batched Plasma.Lookup RPC per ranked peer until everything
  // unresolved has been asked everywhere (the paper's unary gRPC path),
  // with hedged reads layered on: each wave fires the batch at the best
  // not-yet-asked peer, and when that primary stays quiet past its
  // EWMA-derived hedge delay the same batch goes to the next-ranked peer
  // too (global hedge budget permitting) — first success wins, and a
  // peer consumed as a hedge is not asked again. A wave whose every
  // attempt failed falls through to the next peer, so under a partition
  // the answer comes from whichever copies are reachable; when none are,
  // the op completes (every attempt is deadline/timeout-bounded) with
  // the unresolved entries nullopt. The waves run on the I/O thread.
  if (unresolved.empty() || peers.empty()) {
    if (!unresolved.empty() && deadline.expired()) {
      MutexLock lock(mutex_);
      ++stats_.deadline_exhausted;
    }
    return MakeReadyFuture(std::move(out));
  }
  auto op = std::make_shared<LookupOp>();
  op->ids = ids;
  op->out = std::move(out);
  op->unresolved = std::move(unresolved);
  op->peers = std::move(peers);
  op->deadline = deadline;
  Future<plasma::DistHooks::Locations> result = op->done.GetFuture();
  if (!loop_->Post([this, op] { StartLookupWave(op); })) FinishLookup(op);
  return result;
}

void RemoteStoreRegistry::StartLookupWave(const std::shared_ptr<LookupOp>& op) {
  if (op->finished) return;
  if (op->unresolved.empty() || op->next_peer >= op->peers.size() ||
      op->deadline.expired()) {
    FinishLookup(op);
    return;
  }
  auto request = std::make_shared<LookupRequest>();
  request->ids.reserve(op->unresolved.size());
  for (size_t i : op->unresolved) request->ids.push_back(op->ids[i]);
  op->request = std::move(request);
  const uint64_t wave = ++op->wave;
  op->launched = 0;
  op->outcomes.clear();
  op->hedge_fired = false;
  const int64_t hedge_at_ns =
      MonotonicNanos() + HedgeDelayNs(op->peers[op->next_peer]);
  LaunchLookupAttempt(op, /*is_hedge=*/false);
  // The attempt may have failed fast and settled the wave already.
  if (op->finished || op->wave != wave) return;
  if (options_.enable_hedged_reads && op->next_peer < op->peers.size()) {
    op->hedge_timer = loop_->AddTimer(
        hedge_at_ns, [this, op, wave] { OnHedgeDelay(op, wave); });
  }
}

void RemoteStoreRegistry::LaunchLookupAttempt(
    const std::shared_ptr<LookupOp>& op, bool is_hedge) {
  std::shared_ptr<Peer> peer = op->peers[op->next_peer++];
  ++op->launched;
  {
    MutexLock lock(mutex_);
    ++stats_.lookup_rpcs;
  }
  const uint64_t wave = op->wave;
  const int64_t start = MonotonicNanos();
  PeerCall<LookupReply>(peer, kMethodLookup, *op->request, op->deadline)
      .Then([this, op, peer, wave, is_hedge,
             start](Result<LookupReply>& reply) {
        // Every outcome feeds the health machine, including those of an
        // abandoned wave's attempts.
        const bool ok = reply.ok();
        RecordPeerResult(peer, ok || !IsConnectivityError(reply.status()));
        if (ok) RecordPeerLatency(peer, MonotonicNanos() - start);
        if (is_hedge) hedge_inflight_.fetch_sub(1);
        if (op->finished || op->wave != wave) return;
        op->outcomes.push_back({std::move(reply), is_hedge});
        SettleLookupWave(op);
      });
}

void RemoteStoreRegistry::OnHedgeDelay(const std::shared_ptr<LookupOp>& op,
                                       uint64_t wave) {
  op->hedge_timer = rpc::ChannelLoop::TimerId{};
  if (op->finished || op->wave != wave || op->hedge_fired ||
      op->next_peer >= op->peers.size()) {
    return;
  }
  op->hedge_fired = true;
  if (hedge_inflight_.fetch_add(1) + 1 > options_.hedge_max_inflight) {
    hedge_inflight_.fetch_sub(1);
    MutexLock lock(mutex_);
    ++stats_.hedge_budget_denied;
    return;  // keep waiting the primary out
  }
  {
    MutexLock lock(mutex_);
    ++stats_.hedged_reads;
  }
  LaunchLookupAttempt(op, /*is_hedge=*/true);
}

void RemoteStoreRegistry::SettleLookupWave(
    const std::shared_ptr<LookupOp>& op) {
  // First success WITH a hit wins immediately. An ok-but-all-miss reply
  // is not a win while attempts are still in flight: the slow attempt
  // may be the one peer that actually holds the object (hedging a
  // single-copy object pairs its holder with a fast not-found peer), so
  // concluding on the miss would make the object unreachable for
  // exactly as long as its holder is gray. Misses only win once every
  // launched attempt reported.
  LookupOp::Outcome* winner = nullptr;
  for (auto& outcome : op->outcomes) {
    if (!outcome.reply.ok()) continue;
    const auto& entries = outcome.reply.value().entries;
    if (std::any_of(entries.begin(), entries.end(),
                    [](const auto& e) { return e.found; })) {
      winner = &outcome;
      break;
    }
  }
  if (winner == nullptr) {
    if (op->outcomes.size() < op->launched) return;  // keep waiting
    // Every attempt reported; settle for an all-miss success (the ids
    // move on to the next peer) or give up the wave entirely (all
    // attempts failed).
    for (auto& outcome : op->outcomes) {
      if (outcome.reply.ok()) {
        winner = &outcome;
        break;
      }
    }
  }
  loop_->CancelTimer(op->hedge_timer);
  if (winner != nullptr) {
    if (winner->is_hedge) {
      MutexLock lock(mutex_);
      ++stats_.hedge_wins;
    }
    const auto& entries = winner->reply.value().entries;
    std::vector<size_t> still_unresolved;
    for (size_t k = 0; k < op->unresolved.size(); ++k) {
      size_t i = op->unresolved[k];
      if (k < entries.size() && entries[k].found) {
        op->out[i] = entries[k].location;
      } else {
        still_unresolved.push_back(i);
      }
    }
    op->unresolved.swap(still_unresolved);
  }
  // Abandon the wave (its stragglers only feed the health machine) and
  // move on: the next peer for what is still unresolved, or done.
  ++op->wave;
  StartLookupWave(op);
}

void RemoteStoreRegistry::FinishLookup(const std::shared_ptr<LookupOp>& op) {
  if (op->finished) return;
  op->finished = true;
  if (op->hedge_timer.seq != 0) loop_->CancelTimer(op->hedge_timer);
  if (!op->unresolved.empty() && op->deadline.expired()) {
    // Gave up with ids unresolved because the budget ran out — whether
    // it died before the first wave or inside the last one.
    MutexLock lock(mutex_);
    ++stats_.deadline_exhausted;
  }
  op->done.Set(std::move(op->out));
}

Future<bool> RemoteStoreRegistry::IdKnownRemotely(const ObjectId& id,
                                                  Deadline deadline) {
  auto peers = SnapshotLivePeers();
  if (peers.empty()) return MakeReadyFuture(false);
  if (deadline.expired()) {
    // Out of budget with peers unasked: report unknown — Create-side
    // uniqueness probing degrades to best-effort rather than stalling
    // the client past its deadline.
    MutexLock lock(mutex_);
    ++stats_.deadline_exhausted;
    return MakeReadyFuture(false);
  }
  // Every live peer is asked at once. The id is known as soon as one
  // peer says so, unknown once all have answered (a peer that could not
  // answer counts as not knowing it).
  struct Probe {
    explicit Probe(size_t n) : pending(n) {}
    std::atomic<size_t> pending;
    Promise<bool> known;
  };
  auto probe = std::make_shared<Probe>(peers.size());
  {
    MutexLock lock(mutex_);
    stats_.probe_rpcs += peers.size();
  }
  ProbeRequest request;
  request.id = id;
  Future<bool> known = probe->known.GetFuture();
  for (const auto& peer : peers) {
    PeerCall<ProbeReply>(peer, kMethodProbe, request, deadline)
        .Then([this, peer, probe](Result<ProbeReply>& reply) {
          if (!reply.ok()) {
            RecordPeerResult(peer, !IsConnectivityError(reply.status()));
          } else {
            RecordPeerResult(peer, true);
            if (reply->exists) probe->known.Set(true);
          }
          if (probe->pending.fetch_sub(1) == 1) probe->known.Set(false);
        });
  }
  return known;
}

Future<Status> RemoteStoreRegistry::PinRemote(
    const ObjectId& id, const plasma::RemoteObjectLocation& loc,
    Deadline deadline) {
  if (deadline.expired()) {
    // The location may be perfectly valid; there is just no budget left
    // for the RPC.
    {
      MutexLock lock(mutex_);
      ++stats_.deadline_exhausted;
    }
    return MakeReadyFuture(
        Status::DeadlineExceeded("pin: deadline exhausted before the RPC"));
  }
  auto peer = FindLivePeer(loc.home_node);
  if (peer == nullptr) {
    // Unknown or dead home: the location is unusable.
    return MakeReadyFuture(Status::Unavailable(
        "pin: peer node " + std::to_string(loc.home_node) +
        " is unavailable"));
  }
  PinRequest request;
  request.id = id;
  request.peer_node = self_node_;
  request.offset = loc.offset;
  request.data_size = loc.data_size;
  request.metadata_size = loc.metadata_size;
  {
    MutexLock lock(mutex_);
    ++stats_.pin_rpcs;
  }
  const int64_t rpc_start = MonotonicNanos();
  return PeerCall<PinReply>(peer, kMethodPin, request, deadline)
      .Then([this, peer, id, loc, rpc_start](Result<PinReply>& reply) {
        Status status = reply.ok() ? reply->status : reply.status();
        RecordPeerResult(peer, !IsConnectivityError(status));
        if (reply.ok()) RecordPeerLatency(peer, MonotonicNanos() - rpc_start);
        if (!status.ok()) {
          // Either the peer is unreachable or it no longer has the
          // object (deleted or evicted since the lookup). Both ways the
          // location must not be served; the caller may re-run the
          // lookup path.
          MutexLock lock(mutex_);
          if (status.Is(StatusCode::kDeadlineExceeded)) {
            // The RPC itself burned the remaining budget (the
            // expired-upfront case is counted above).
            ++stats_.deadline_exhausted;
          }
          ++stats_.stale_pins_detected;
          return status;
        }
        usage_.RecordPin(id, loc);
        return Status::OK();
      });
}

Future<Status> RemoteStoreRegistry::UnpinRemote(
    const ObjectId& id, const plasma::RemoteObjectLocation& loc) {
  // Only unpin what we recorded: a pin whose RPC failed (or that targeted
  // a dead peer) has no remote state to release.
  if (!usage_.RecordUnpin(id)) return MakeReadyFuture(Status::OK());
  auto peer = FindLivePeer(loc.home_node);
  // No remote state left to release.
  if (peer == nullptr) return MakeReadyFuture(Status::OK());
  UnpinRequest request;
  request.id = id;
  request.peer_node = self_node_;
  {
    MutexLock lock(mutex_);
    ++stats_.pin_rpcs;
  }
  return peer->channel
      ->CallTypedAsync<UnpinReply>(kMethodUnpin, request,
                                   options_.rpc_timeout_ms)
      .Then([this, peer, id, loc](Result<UnpinReply>& reply) {
        Status status = reply.ok() ? reply->status : reply.status();
        if (IsConnectivityError(status)) {
          // The unpin never reached the peer: re-record it so the pin is
          // not leaked — ReleaseAllPins (or a later unpin) retries.
          // Application errors (KeyError) mean the remote side already
          // forgot the pin; nothing to re-record. Re-record BEFORE
          // feeding the failure to the health machine: if this failure
          // is the one that declares the peer dead, DropPinsForNode must
          // see (and drop) this pin too.
          usage_.RecordPin(id, loc);
        }
        RecordPeerResult(peer, !IsConnectivityError(status));
        return status;
      });
}

std::vector<plasma::PeerStatsEntry> RemoteStoreRegistry::PeerHealth() {
  auto peers = SnapshotPeers();
  std::vector<plasma::PeerStatsEntry> out;
  out.reserve(peers.size());
  const int64_t now = MonotonicNanos();
  for (const auto& peer : peers) {
    plasma::PeerStatsEntry entry;
    // Channel stats have their own lock and never block behind an
    // in-flight call.
    auto channel_stats = peer->channel->stats();
    MutexLock lock(mutex_);
    entry.node_id = peer->node_id;
    entry.state = static_cast<uint8_t>(peer->state);
    entry.failure_streak = peer->failure_streak;
    entry.failed_rpcs = peer->failed_rpcs;
    entry.reconnects = channel_stats.reconnects;
    entry.heartbeats = peer->heartbeats;
    entry.ms_since_ok =
        peer->last_ok_ns > 0 ? (now - peer->last_ok_ns) / 1000000 : -1;
    entry.ewma_latency_us =
        peer->ewma_latency_ns > 0 ? peer->ewma_latency_ns / 1000 : -1;
    out.push_back(entry);
  }
  return out;
}

plasma::DistHooks::RobustnessCounters
RemoteStoreRegistry::GetRobustnessCounters() {
  MutexLock lock(mutex_);
  plasma::DistHooks::RobustnessCounters counters;
  counters.deadline_exhausted = stats_.deadline_exhausted;
  counters.hedged_reads = stats_.hedged_reads;
  counters.hedge_wins = stats_.hedge_wins;
  counters.hedge_budget_denied = stats_.hedge_budget_denied;
  return counters;
}

Future<std::vector<uint32_t>> RemoteStoreRegistry::ReplicateObject(
    const ObjectId& id, const plasma::RemoteObjectLocation& source,
    uint32_t crc, uint32_t copies_wanted,
    const std::vector<uint32_t>& exclude, uint32_t origin,
    uint32_t desired) {
  if (copies_wanted == 0) return MakeReadyFuture(std::vector<uint32_t>{});
  auto push = std::make_shared<ReplicaPush>();
  push->exclude = exclude;
  push->wanted = copies_wanted;
  push->candidates = SnapshotRankedPeers();
  push->candidates.erase(
      std::remove_if(push->candidates.begin(), push->candidates.end(),
                     [&](const std::shared_ptr<Peer>& peer) {
                       return std::find(exclude.begin(), exclude.end(),
                                        peer->node_id) != exclude.end();
                     }),
      push->candidates.end());
  ReplicateRequest& request = push->request;
  request.id = id;
  request.from_node = self_node_;
  request.origin_node = origin;
  request.desired_copies = desired;
  request.region = source.home_region;
  request.offset = source.offset;
  request.data_size = source.data_size;
  request.metadata_size = source.metadata_size;
  request.crc = crc;
  Future<std::vector<uint32_t>> accepted = push->done.GetFuture();
  PushNextReplica(push);
  return accepted;
}

void RemoteStoreRegistry::PushNextReplica(
    const std::shared_ptr<ReplicaPush>& push) {
  if (push->accepted.size() >= push->wanted ||
      push->next >= push->candidates.size()) {
    push->done.Set(push->accepted);
    return;
  }
  std::shared_ptr<Peer> peer = push->candidates[push->next++];
  // Each push carries the full copy set as believed at send time: current
  // holders, acceptors so far, and this target. A later target's record
  // is therefore a superset of an earlier one's — worst case two
  // survivors both elect themselves healer after a death and push
  // duplicate copies, which AcceptReplica absorbs idempotently.
  ReplicateRequest& request = push->request;
  request.copy_nodes = push->exclude;
  for (uint32_t node : push->accepted) request.copy_nodes.push_back(node);
  request.copy_nodes.push_back(peer->node_id);
  {
    MutexLock lock(mutex_);
    ++stats_.replicate_rpcs;
  }
  const int64_t rpc_start = MonotonicNanos();
  peer->channel
      ->CallTypedAsync<ReplicateReply>(kMethodReplicate, request,
                                       options_.rpc_timeout_ms)
      .Then([this, push, peer, rpc_start](Result<ReplicateReply>& reply) {
        Status status = reply.ok() ? reply->status : reply.status();
        RecordPeerResult(peer, !IsConnectivityError(status));
        if (status.ok()) {
          RecordPeerLatency(peer, MonotonicNanos() - rpc_start);
          push->accepted.push_back(peer->node_id);
        }
        // Application-level rejections (the id is mid-create there, the
        // peer is out of memory, its pull failed) just move on to the
        // next candidate.
        PushNextReplica(push);
      });
}

Future<Status> RemoteStoreRegistry::DropReplicas(
    const ObjectId& id, const std::vector<uint32_t>& holders) {
  ReplicaDropRequest request;
  request.id = id;
  request.from_node = self_node_;
  std::vector<std::shared_ptr<Peer>> targets;
  for (uint32_t node : holders) {
    auto peer = FindLivePeer(node);
    if (peer != nullptr) targets.push_back(std::move(peer));
    // A dead holder's copy died with it.
  }
  if (targets.empty()) return MakeReadyFuture(Status::OK());
  {
    MutexLock lock(mutex_);
    stats_.replicate_rpcs += targets.size();
  }
  auto fan = std::make_shared<FanIn>(targets.size());
  for (const auto& peer : targets) {
    peer->channel
        ->CallTypedAsync<ReplicaDropReply>(kMethodReplicaDrop, request,
                                           options_.rpc_timeout_ms)
        .Then([this, peer, fan](Result<ReplicaDropReply>& reply) {
          Status status = reply.ok() ? reply->status : reply.status();
          // A holder that rejects (already dropped, or the id was
          // re-created there) needs nothing further; a holder we cannot
          // reach feeds the health machine and its copy is reclaimed by
          // the death path.
          RecordPeerResult(peer, !IsConnectivityError(status));
          fan->Arrive();
        });
  }
  return fan->done.GetFuture();
}

void RemoteStoreRegistry::ReleaseAllPins() {
  std::vector<Future<Status>> unpins;
  for (const auto& pin : usage_.Snapshot()) {
    for (uint32_t i = 0; i < pin.count; ++i) {
      unpins.push_back(UnpinRemote(pin.id, pin.location));
    }
  }
  WaitAll(unpins);
}

void RemoteStoreRegistry::StartHealthMonitor() {
  if (options_.heartbeat_interval_ms == 0) return;
  MutexLock lock(heartbeat_mutex_);
  if (heartbeat_running_) return;
  heartbeat_running_ = true;
  heartbeat_thread_ = std::thread([this] { HeartbeatLoop(); });
}

void RemoteStoreRegistry::StopHealthMonitor() {
  // Claim the thread handle under the lock (concurrent Stops can't
  // double-join), but never join while holding heartbeat_mutex_ — the
  // loop re-acquires it between rounds.
  std::thread to_join;
  {
    MutexLock lock(heartbeat_mutex_);
    heartbeat_running_ = false;
    to_join = std::move(heartbeat_thread_);
  }
  heartbeat_cv_.NotifyAll();
  if (to_join.joinable()) to_join.join();
}

void RemoteStoreRegistry::HeartbeatLoop() {
  heartbeat_mutex_.Lock();
  while (heartbeat_running_) {
    heartbeat_cv_.WaitFor(
        heartbeat_mutex_,
        std::chrono::milliseconds(options_.heartbeat_interval_ms),
        [this] {
          heartbeat_mutex_.AssertHeld();  // predicate runs under the wait
          return !heartbeat_running_;
        });
    if (!heartbeat_running_) break;
    heartbeat_mutex_.Unlock();
    PingAllPeers();
    heartbeat_mutex_.Lock();
  }
  heartbeat_mutex_.Unlock();
}

void RemoteStoreRegistry::PingAllPeers() {
  PingRequest request;
  request.from_node = self_node_;
  // Every peer, dead ones included: the heartbeat is how a restarted
  // peer is noticed (the channel redials under its backoff policy, so a
  // still-dead peer costs at most one cheap dial attempt per round).
  for (const auto& peer : SnapshotPeers()) {
    {
      MutexLock lock(mutex_);
      ++peer->heartbeats;
      ++stats_.heartbeats;
    }
    auto reply = peer->channel->CallTyped<PingReply>(
        kMethodPing, request, options_.ping_timeout_ms);
    bool ok = reply.ok() && reply->node_id == peer->node_id;
    if (reply.ok() && reply->node_id != peer->node_id) {
      MDOS_LOG_WARN << "node " << self_node_ << ": peer port answered as "
                    << reply->node_id << ", expected " << peer->node_id;
    }
    if (!reply.ok() && !IsConnectivityError(reply.status())) {
      // An RPC-level rejection (e.g. an old peer without Plasma.Ping)
      // still proves liveness.
      ok = true;
    }
    RecordPeerResult(peer, ok);
  }
}

}  // namespace mdos::dist
