// Store — the memory-disaggregated Plasma object store (paper §IV),
// rearchitected as a sharded, multi-threaded core.
//
// One Store runs per node. Local clients connect over a Unix domain
// socket; object buffers are carved out of the node's disaggregated
// memory pool by the paper's first-fit ordered-map allocator, so remote
// nodes can consume them by direct fabric loads instead of copying data
// over the LAN. Stores are interconnected through the dist layer
// (gRPC-equivalent unary RPC over pipelined channels): on a client Get
// for an unknown id, the store looks the id up in its peers and, on a
// hit, hands the client a buffer that points into the remote node's
// disaggregated memory; on Create it probes peers to guarantee
// system-wide identifier uniqueness. Peer work never blocks a shard: the
// operation waiting on it is parked and resumed on its shard when the
// dist layer's future completes (see DistHooks).
//
// Threading (sharded design — supersedes the paper's single store
// thread + single mutex):
//
//   * A dedicated ACCEPT thread owns the listening socket. It hands each
//     new connection to a shard round-robin and survives fd exhaustion
//     (EMFILE/ENFILE) by logging and backing off instead of dying.
//   * N SHARD threads (StoreOptions::shards) each drive a Poller event
//     loop over the connections homed on them. Every object id hashes to
//     exactly one OWNER shard, which holds that id's table entry,
//     eviction state, and allocator arena (the pool is carved into
//     per-shard arenas by alloc::ShardedAllocator).
//   * Owner state is guarded by a per-shard mutex, so a handler running
//     on shard A may operate on an id owned by shard B by taking B's
//     lock — cross-shard Creates/Gets/Deletes are synchronous and never
//     hold two shard locks at once (no lock-order cycles).
//   * Work that must execute on a specific shard's event loop — waking
//     parked Gets after a cross-shard Seal, pushing notifications to
//     that shard's subscribers, adopting a freshly accepted connection —
//     travels through a per-shard MAILBOX (Shard::Post) and is drained
//     by the shard thread, so every write to a client socket happens on
//     the connection's home thread and replies still complete out of
//     order via the request-tagged protocol.
//   * The node's RPC server thread calls the thread-safe peer surface
//     (LookupManyForPeer & co.), which routes straight to the owning
//     shard's mutex instead of one global lock.
//   * The shared index writer is serialized by its own index mutex
//     (always acquired after a shard mutex, never before).
//
// Tiered storage (StoreOptions::spill_dir): with a spill directory set,
// eviction demotes sealed, unpinned objects to a per-shard disk segment
// (plasma/spill_file.h) instead of destroying them, and a Get for a
// spilled object transparently promotes it back into the pool —
// re-running eviction for the space if needed — before the reply is
// sent. Clients never observe the tier: the same Get/Contains surface
// answers from memory or disk, only latency (and the spill counters in
// GetStoreStats) differ. Spill files are owner state, accessed under the
// shard mutex like the table and arena; spill writes and restore reads
// therefore serialize that shard's owner operations — the price of
// overcommit, paid only by workloads that exceed the pool.
//
// With shards = 1 (the default) the store is protocol- and
// behaviour-compatible with the original single-threaded design.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <list>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "alloc/allocator.h"
#include "alloc/sharded_allocator.h"
#include "common/deadline.h"
#include "common/future.h"
#include "common/mutex.h"
#include "common/object_id.h"
#include "common/status.h"
#include "net/fd.h"
#include "net/frame.h"
#include "net/memfd.h"
#include "net/poller.h"
#include "net/tx_queue.h"
#include "plasma/eviction.h"
#include "plasma/generation_table.h"
#include "plasma/object_table.h"
#include "plasma/protocol.h"
#include "plasma/shared_index.h"
#include "plasma/spill_file.h"
#include "tf/fabric.h"

namespace mdos::plasma {

enum class AllocatorKind : uint8_t {
  kFirstFit = 0,       // the paper's replacement allocator
  kSegregatedFit = 1,  // dlmalloc-style baseline
};

struct StoreOptions {
  std::string name = "plasma";
  // UDS path for client IPC; empty picks a unique /tmp path.
  std::string socket_path;
  uint64_t capacity = 256ull << 20;
  AllocatorKind allocator = AllocatorKind::kFirstFit;
  // Event-loop shards. Each shard owns its own connections, object
  // table, eviction state, and allocator arena; ids hash to shards.
  // Clamped to [1, 64] and to capacity / ShardedAllocator::kMinArenaBytes.
  // Trade-off of the static arena carving: a single object can be at
  // most capacity/shards bytes, and eviction pressure is per-arena (a
  // hash-hot shard evicts while cold arenas sit idle) — size shards to
  // the workload's largest object and core count.
  uint32_t shards = 1;
  // Explicit accept backlog for the listening socket.
  int accept_backlog = 128;
  // Egress backpressure cap: a client that stops draining its socket has
  // its replies queued in memory (the non-blocking write queue) up to
  // this many bytes; past it the store sheds the client instead of
  // buffering without bound.
  uint64_t max_egress_queue_bytes = 64ull << 20;
  // Disk spill tier. Empty (the default) disables it: eviction destroys
  // victims as before. When set, each shard keeps an append-only segment
  // file `<spill_dir>/<name>.shard<i>.spill`; eviction writes victims
  // there and Get restores them on demand, so working sets larger than
  // `capacity` complete instead of failing with kOutOfMemory. The
  // directory is created if missing; files are deleted on Stop (the
  // spill tier is an extension of the in-memory pool, not a persistence
  // layer across store restarts).
  std::string spill_dir;
  // Probe peers on Create (§IV-A2): a Create fails with AlreadyExists
  // when a live peer holds the id at probe time. Two concurrent Creates
  // of one id on different nodes can still both succeed.
  bool check_global_uniqueness = true;
  // Distributed object-usage sharing (paper future work, implemented):
  // pin remote objects at their home store while local clients use them.
  bool pin_remote_objects = true;
  // k-way replication: every sealed object is fanned out to
  // (replication_factor - 1) replica peers over the dist layer, and the
  // re-heal driver restores the copy count when a peer holding one dies.
  // 1 (the default) disables store-wide replication; clients can still
  // request it per object (CreateRequest::replicate, which makes the
  // effective count max(replication_factor, 2)). Replicated objects may
  // be spilled but are never destructively evicted — a copy another node
  // relies on must not silently vanish.
  uint32_t replication_factor = 1;
};

// Location of a remote object as exchanged between stores.
struct RemoteObjectLocation {
  uint32_t home_node = 0;
  uint32_t home_region = 0;  // fabric RegionId of the home store's pool
  uint64_t offset = 0;       // region-relative offset of the data section
  uint64_t data_size = 0;
  uint64_t metadata_size = 0;
  // Mapped data plane: the generation stamped on this descriptor and the
  // slot/region/epoch to validate it against (generation_table.h).
  // gen_region == UINT32_MAX means the home store published no
  // generation table and the location supports only the RPC+pin path.
  uint64_t generation = 0;
  uint64_t gen_slot = 0;
  uint32_t gen_region = UINT32_MAX;
  uint64_t gen_epoch = 0;
  // Wire order (travels inside dist::LookupEntry).
  static void Fields(auto& m, auto& v) {
    v(m.home_node, m.home_region, m.offset, m.data_size, m.metadata_size,
      m.generation, m.gen_slot, m.gen_region, m.gen_epoch);
  }
};

// Interface to the distributed layer; implemented by
// dist::RemoteStoreRegistry. No call blocks: each returns at once with a
// future that the implementation completes when the peer work is done —
// on its own I/O thread, or before returning when no peer had to be
// asked (zero peers, a shared-index hit). Continuations therefore must
// not block; the store resumes the client's operation on its shard
// through the shard mailbox. With the sharded core, calls may arrive
// concurrently from several shard threads — implementations must be
// thread-safe (RemoteStoreRegistry is: peer list and stats are
// mutex-guarded and channels internally synchronized).
class DistHooks {
 public:
  using Locations = std::vector<std::optional<RemoteObjectLocation>>;

  virtual ~DistHooks() = default;

  // Looks up each id in the peer stores; entry i is nullopt when id i is
  // unknown everywhere. `deadline` is the remaining end-to-end budget of
  // the client operation that triggered the lookup: implementations
  // must not outlive it (clamp every per-peer RPC to the remaining
  // budget, skip the RPC entirely once it has expired).
  virtual Future<Locations> LookupRemote(const std::vector<ObjectId>& ids,
                                         Deadline deadline) = 0;

  // True when any peer store already knows `id` (uniqueness probe).
  virtual Future<bool> IdKnownRemotely(const ObjectId& id,
                                       Deadline deadline) = 0;

  // Usage-tracking extension: pin/unpin `id` at its home store. A failed
  // pin means the location is no longer valid (the peer dropped the
  // object after the lookup, or is unreachable); the caller may re-run
  // the lookup path, which can find another copy. Pin carries the
  // operation deadline (it sits on the client's Get path); Unpin is
  // cleanup and uses the implementation's own RPC bound. The unpin's
  // future completes once the home store has dropped the pin (or the
  // attempt failed).
  virtual Future<Status> PinRemote(const ObjectId& id,
                                   const RemoteObjectLocation& loc,
                                   Deadline deadline) = 0;
  virtual Future<Status> UnpinRemote(const ObjectId& id,
                                     const RemoteObjectLocation& loc) = 0;

  // Peer failure handling: per-peer health rows for observability
  // (kPeerStatsRequest). Default: no peers.
  virtual std::vector<PeerStatsEntry> PeerHealth() { return {}; }

  // Gray-failure counters folded into StoreStats: operations that
  // exhausted their deadline budget in the dist layer, and the hedged
  // replica-read machinery's outcomes. Default: none.
  struct RobustnessCounters {
    uint64_t deadline_exhausted = 0;
    uint64_t hedged_reads = 0;
    uint64_t hedge_wins = 0;
    uint64_t hedge_budget_denied = 0;
  };
  virtual RobustnessCounters GetRobustnessCounters() { return {}; }

  // k-way replication: ask up to `copies_wanted` live peers not in
  // `exclude` (nodes already holding a copy) to pull `id` out of this
  // store's pool at `source` (region, data offset, sizes) through their
  // own fabric attachment. `crc` is the Crc32 of those bytes; a target
  // refuses a copy that does not match it. The caller keeps the bytes in
  // place until the future completes, with the node ids that accepted.
  // `origin`/`desired` travel with the request so every holder records
  // the same replication state. Default: no peers.
  virtual Future<std::vector<uint32_t>> ReplicateObject(
      const ObjectId& id, const RemoteObjectLocation& source, uint32_t crc,
      uint32_t copies_wanted, const std::vector<uint32_t>& exclude,
      uint32_t origin, uint32_t desired) {
    (void)id; (void)source; (void)crc; (void)copies_wanted; (void)exclude;
    (void)origin; (void)desired;
    return MakeReadyFuture(std::vector<uint32_t>{});
  }

  // The origin deleted `id`: tell every holder to drop its replica;
  // completes when every live holder answered.
  virtual Future<Status> DropReplicas(const ObjectId& id,
                                      const std::vector<uint32_t>& holders) {
    (void)id; (void)holders;
    return MakeReadyFuture(Status::OK());
  }
};

class Store {
 public:
  // Standalone store: owns a private memfd pool (no fabric, no peers).
  static Result<std::unique_ptr<Store>> Create(StoreOptions options);

  // Fabric-backed store: the pool is the window of `node`'s slab that was
  // exported as `pool_region` (offsets within the region and within the
  // pool coincide; the cluster layer guarantees this).
  static Result<std::unique_ptr<Store>> CreateOnFabric(
      StoreOptions options, tf::Fabric* fabric, tf::NodeId node,
      tf::RegionId pool_region);

  ~Store();
  Store(const Store&) = delete;
  Store& operator=(const Store&) = delete;

  // Binds the socket and starts the accept + shard threads.
  Status Start();
  // Stops every thread and closes all client connections. Idempotent.
  void Stop();

  // Wiring (before Start): distributed hooks. They may be called from
  // any shard thread concurrently and must be thread-safe.
  void SetDistHooks(DistHooks* hooks) { dist_hooks_ = hooks; }

  // Shared-index extension (paper §V-B): when set, sealed objects are
  // published into `writer` (a table in disaggregated memory that remote
  // stores read directly) and withdrawn on delete/eviction. Writes from
  // all shards are serialized by the store's index mutex (the index
  // format is single-writer). `index_region` is the fabric region peers
  // should attach; it travels in the Hello handshake.
  void SetSharedIndex(SharedIndexWriter* writer, uint32_t index_region) {
    shared_index_ = writer;
    index_region_ = index_region;
  }
  uint32_t index_region() const { return index_region_; }

  // Mapped data plane (zero-RPC remote reads): when set, every transition
  // that (re)binds or invalidates an object's bytes — seal, destructive
  // evict, spill, spill-restore re-insert, delete — bumps the id's slot
  // in `table`, peer-facing lookups stamp descriptors with the current
  // generation, and remote sealed Gets are served as those unpinned
  // descriptors instead of pinning at the home store. Clients copy the
  // payload straight from the mapped region and re-check the generation;
  // a mismatch (evicted / spilled / deleted mid-read) falls back to a
  // pinned re-Get. Unset (the default) keeps the pinned contract.
  // `gen_region` is the fabric region peers attach (travels in the Hello
  // handshake). The table is lock-free (per-slot atomics), so unlike the
  // shared index it needs no store-level serialization; bumps are
  // ordered against index updates by the owning shard's mutex.
  void SetGenerationTable(GenerationTable* table, uint32_t gen_region) {
    gen_table_ = table;
    gen_region_ = gen_region;
  }
  uint32_t gen_region() const { return gen_region_; }

  const std::string& socket_path() const { return socket_path_; }
  const std::string& name() const { return options_.name; }
  uint32_t node_id() const { return node_id_; }
  uint32_t pool_region() const { return pool_region_; }
  uint64_t capacity() const { return options_.capacity; }
  // Effective shard count (after clamping).
  uint32_t shard_count() const;

  // ---- thread-safe surface for the dist service (RPC thread) ----------
  // Each call routes to the owning shard's mutex; no global lock exists.

  // Batched sealed-object lookup on behalf of a peer store: groups ids
  // by owning shard so each shard mutex is taken once per request
  // instead of once per id. Entry i is nullopt when id i is absent or
  // unsealed. Offsets in the reply are pool/region-relative.
  std::vector<std::optional<RemoteObjectLocation>> LookupManyForPeer(
      const std::vector<ObjectId>& ids);

  // True when the id exists in any state (uniqueness probe must also see
  // unsealed creations).
  [[nodiscard]] bool ContainsId(const ObjectId& id);

  // Remote pin bookkeeping (usage-tracking extension). `seen` is the
  // location the peer's lookup returned; only its offset and sizes are
  // read. A spilled entry is restored first, and the pin is refused
  // (KeyError) when the entry no longer sits at that offset with those
  // sizes — it was spilled and restored elsewhere, or deleted and
  // re-created, since the lookup — so no peer reads a recycled offset.
  Status PinForPeer(const ObjectId& id, uint32_t peer_node,
                    const RemoteObjectLocation& seen);
  Status UnpinForPeer(const ObjectId& id, uint32_t peer_node);
  // Remote pins held on a local object; 0 when none.
  uint32_t RemotePins(const ObjectId& id);
  // Drops every pin held by `peer_node` across all shards (the peer was
  // declared dead — its pins must no longer block eviction). Returns the
  // number of pins released.
  uint64_t ReleasePinsForPeer(uint32_t peer_node);

  // ---- k-way replication (peer surface + re-heal driver) --------------

  // Installs a replica of `id` pushed by `source.home_node`
  // (Plasma.Replicate) by pulling its bytes over the fabric: checks that
  // the node owns `source.home_region`, allocates (with eviction), reads
  // the data and metadata sections through this node's attachment of
  // that region, checks the copy against `crc`, seals, and records the
  // replication state. The pull runs on the calling thread (the RPC
  // serve thread) outside the shard mutex, and stalls it for the
  // modelled read. A refused region or range returns before allocating;
  // a failed read or a CRC mismatch (the sender's push timed out and its
  // bytes moved before this pull ran) frees the allocation. None of
  // these errors is a connectivity code, so the pusher tries its next
  // candidate. Idempotent: a copy that already exists merges
  // `copy_nodes` into its record and reports success, without
  // allocating or pulling.
  Status AcceptReplica(const ObjectId& id, const RemoteObjectLocation& source,
                       uint32_t crc, uint32_t origin_node,
                       uint32_t desired_copies,
                       const std::vector<uint32_t>& copy_nodes);

  // Drops the local replica of `id` because its origin `from_node`
  // deleted it (Plasma.ReplicaDrop). Refuses when the local entry is not
  // a replica of `from_node` (the id was re-created locally).
  Status DropReplicaLocal(const ObjectId& id, uint32_t from_node);

  // Peer `dead_node` was declared dead: enqueue a re-heal round. The
  // driver thread strips the corpse from every copy set, elects one
  // surviving holder per under-replicated object (the lowest live node
  // id — deterministic, no coordination), and re-replicates from it
  // (restoring from the spill tier first when needed). Safe from any
  // thread; no-op before Start/after Stop.
  void RequestReheal(uint32_t dead_node);
  // Re-heal rounds still queued or running (0 = converged; test hook).
  uint64_t PendingReheals();

  // Aggregate statistics across shards (includes peer-health totals when
  // dist hooks are wired).
  StoreStats stats();
  // Per-shard statistics (the GetStoreStats protocol message).
  std::vector<ShardStatsEntry> shard_stats();
  // Per-peer health rows from the dist layer; empty without peers.
  std::vector<PeerStatsEntry> peer_stats();

  // Test hook: pool-wide allocator statistics (merged over arenas).
  alloc::AllocatorStats allocator_stats();

 private:
  // One connected client (one Unix socket), homed on exactly one shard.
  // All fields are touched only by the home shard's thread; the struct
  // is held by shared_ptr so a batch in flight survives a mid-batch
  // drop.
  struct ClientConn : std::enable_shared_from_this<ClientConn> {
    net::UniqueFd fd;
    std::string name;
    bool handshaken = false;
    bool subscriber = false;  // notification-only connection
    // Bytes received but not yet framed. A pipelining client may queue
    // many frames here between event-loop passes; capacity is reused
    // across batches (the per-connection receive scratch).
    std::vector<uint8_t> inbuf;
    // Non-blocking egress: replies queue here (zero-copy) and leave in
    // coalesced gather writes at the end of each event-loop pass.
    net::TxQueue tx;
    // Write interest currently armed on the home shard's poller.
    bool write_armed = false;
    // Queued egress awaiting the end-of-pass flush (in Shard::dirty).
    bool dirty = false;
    // Tx counters already folded into the shard stats (delta tracking).
    net::TxQueueStats reported_tx;
    // Pins of local objects held through this connection: id -> count.
    // (The pinned ids may be owned by any shard.)
    std::unordered_map<ObjectId, uint32_t> local_pins;
    // One remote object handed out through this connection. Pinned refs
    // were adopted through the RPC+pin path and owe the home store one
    // UnpinRemote each; mapped refs are unpinned descriptors (the mapped
    // data plane) and owe nothing. Release consumes mapped refs first so
    // a client's transparent fallback (mapped ref still open, pinned ref
    // just adopted) retires the descriptor and keeps the pin.
    struct RemoteRef {
      RemoteObjectLocation loc;
      uint32_t pinned = 0;
      uint32_t mapped = 0;
    };
    std::unordered_map<ObjectId, RemoteRef> remote_refs;
  };

  // A Get waiting for peer work (its remote lookup, its pins) or for
  // objects to be sealed (or for its deadline). Seal waiters park in the
  // issuing connection's home shard; peer waiters ride the continuations
  // of that work (GetResolution).
  struct PendingGet {
    int fd = -1;
    // The issuing connection, for steps that run after peer work (its fd
    // may belong to a newer client by then).
    std::weak_ptr<ClientConn> conn;
    uint64_t request_id = kNoRequestId;  // echoed into the reply
    std::vector<ObjectId> order;  // reply preserves request order
    std::unordered_map<ObjectId, GetReplyEntry> ready;
    std::unordered_set<ObjectId> waiting;
    // Ids the local pass could not satisfy; consumed by ResolveGets.
    std::vector<ObjectId> missing;
    uint64_t timeout_ms = 0;
    int64_t deadline_ns = 0;
    // The client's end-to-end budget for this Get (wire header). Bounds
    // every downstream RPC (lookup, pin) issued on its behalf; distinct
    // from timeout_ms, which is the park-for-seal wait the client asked
    // for. Infinite when the client carried no deadline.
    Deadline op_deadline;
    // Client requested the RPC+pin path even when the mapped data plane
    // is on (GetRequest::pinned) — the bottom rung of the fallback
    // ladder, and the baseline mode for benchmarks.
    bool pinned = false;
    // This Get is a client's transparent refetch after a generation
    // mismatch (GetRequest::fallback); counted as a mapped fallback.
    bool fallback = false;
  };

  // One event-loop shard: owner of a hash slice of the object space and
  // of the client connections homed on it. See the threading contract
  // above.
  struct Shard {
    // `store_index_mutex` is the store's index_mutex_; the reference
    // exists so the shard-mutex-before-index-mutex nesting order is
    // declared in the annotation below rather than in a comment.
    explicit Shard(Mutex& store_index_mutex)
        : index_mutex(store_index_mutex) {}

    uint32_t index = 0;

    // ---- owner state: any thread, guarded by `mutex` ------------------
    Mutex mutex ACQUIRED_BEFORE(index_mutex);
    ObjectTable table GUARDED_BY(mutex);
    EvictionPolicy eviction GUARDED_BY(mutex);
    // Borrowed from pool_alloc_.
    alloc::Allocator* arena GUARDED_BY(mutex) = nullptr;
    // id -> (peer node -> pin count).
    std::unordered_map<ObjectId, std::unordered_map<uint32_t, uint32_t>>
        remote_pins GUARDED_BY(mutex);
    uint64_t eviction_count GUARDED_BY(mutex) = 0;
    // Disk spill tier (engaged when StoreOptions::spill_dir is set): the
    // shard's segment file plus cumulative spill/restore counters.
    std::optional<SpillFile> spill GUARDED_BY(mutex);
    uint64_t spill_count GUARDED_BY(mutex) = 0;
    uint64_t restore_count GUARDED_BY(mutex) = 0;

    // The store's index mutex (see Store::index_mutex_), always
    // acquired after this shard's `mutex` — never before.
    Mutex& index_mutex;

    // ---- event-loop state: shard thread only --------------------------
    net::Poller poller;
    std::unordered_map<int, std::shared_ptr<ClientConn>> clients;
    std::list<PendingGet> pending_gets;
    // Connections with egress queued since the last flush pass.
    std::vector<int> dirty;
    std::thread thread;

    // Egress observability (TxQueueStats deltas folded in by
    // AccumulateTxStats; read by stats()/shard_stats() from any thread).
    std::atomic<uint64_t> tx_frames{0};
    std::atomic<uint64_t> tx_frames_coalesced{0};
    std::atomic<uint64_t> tx_writev_calls{0};
    std::atomic<uint64_t> tx_bytes{0};
    std::atomic<uint64_t> tx_blocked_events{0};

    // Mapped data plane observability (counted on the Get-serving shard;
    // read by stats()/shard_stats() from any thread).
    std::atomic<uint64_t> mapped_reads{0};
    std::atomic<uint64_t> mapped_bytes{0};
    std::atomic<uint64_t> mapped_fallbacks{0};

    // Cross-thread observability (ShardStats) and fan-out gating.
    // parked_gets is pre-announced with seq_cst BEFORE a Get's final
    // local re-check (ResolveGets), which is what lets FanOutSealed skip
    // shards reading 0 without losing wakeups. subscriber_count gates
    // notification fan-out.
    std::atomic<uint64_t> client_count{0};
    std::atomic<uint64_t> parked_gets{0};
    std::atomic<uint64_t> subscriber_count{0};

    // ---- mailbox: tasks that must run on this shard's thread ----------
    Mutex mailbox_mutex;
    std::vector<std::function<void()>> mailbox GUARDED_BY(mailbox_mutex);

    void Post(std::function<void()> task) EXCLUDES(mailbox_mutex) {
      {
        MutexLock lock(mailbox_mutex);
        mailbox.push_back(std::move(task));
      }
      poller.Wakeup();
    }
  };

  Store(StoreOptions options, uint32_t node_id, uint32_t pool_region);

  // Builds the sharded allocator + shard structs once capacity is final.
  void InitShards();
  uint32_t ShardIndexOf(const ObjectId& id) const;
  Shard& OwnerShard(const ObjectId& id);

  // ---- accept thread ---------------------------------------------------
  void AcceptLoop();
  // Drains the (non-blocking) listening socket; EMFILE/ENFILE and
  // friends log + back off instead of killing the loop.
  void AcceptPending();

  // ---- shard event loops -----------------------------------------------
  // MDOS_EVENT_LOOP_CONTEXT functions run on a shard's event-loop
  // thread; mdos-check forbids blocking calls downstream of them (the
  // connect handshake's ordered flush is the one waived seam).
  MDOS_EVENT_LOOP_CONTEXT void ShardLoop(Shard& shard);
  MDOS_EVENT_LOOP_CONTEXT void DrainMailbox(Shard& shard);
  // Drains the connection's socket into its receive scratch (sized once
  // via FIONREAD — no chunk-copy, no per-frame allocation), decodes every
  // complete frame as a zero-copy view, and processes them as one batch.
  // A pipelining client thus has all of its queued requests serviced in a
  // single pass — with one combined remote lookup for every unknown id
  // across the batch (see ResolveGets) and every reply coalesced into the
  // connection's write queue.
  MDOS_EVENT_LOOP_CONTEXT void OnClientReadable(Shard& shard, int fd);
  // Write-readiness edge for a connection with queued egress residue.
  MDOS_EVENT_LOOP_CONTEXT void OnClientWritable(Shard& shard, int fd);
  MDOS_EVENT_LOOP_CONTEXT void DispatchFrame(
      Shard& shard, ClientConn& conn, const net::FrameView& frame,
      std::vector<PendingGet>* batch_gets);
  void DropClient(Shard& shard, int fd);

  // ---- non-blocking egress ---------------------------------------------
  // Encodes `msg` into a recycled buffer and appends it to the
  // connection's write queue; the frame leaves in the end-of-pass flush,
  // coalesced with every other reply queued on that connection.
  template <typename Message>
  void QueueReply(Shard& shard, ClientConn& conn, MessageType type,
                  uint64_t request_id, const Message& msg);
  void MarkDirty(Shard& shard, ClientConn& conn);
  // Flushes every connection marked dirty since the last pass (one
  // writev per connection in the common case).
  MDOS_EVENT_LOOP_CONTEXT void FlushDirtyConns(Shard& shard);
  // Flushes one connection's queue: EAGAIN arms write interest (and
  // enforces max_egress_queue_bytes), drain disarms it, an error drops
  // the client. Shard thread only.
  MDOS_EVENT_LOOP_CONTEXT void FlushConn(Shard& shard, ClientConn& conn);
  // Blocking flush for the connect handshake (the SCM_RIGHTS fd pass
  // must follow the reply bytes in stream order).
  Status FlushConnBlocking(Shard& shard, ClientConn& conn, int timeout_ms);
  // Folds the connection's cumulative TxQueue counters into the shard's
  // cross-thread egress stats (delta since last fold).
  void AccumulateTxStats(Shard& shard, ClientConn& conn);

  // Message handlers, running on the connection's home shard thread.
  // `home` is that shard; object state is accessed by locking the id's
  // owner shard. Every reply echoes `request_id` so clients can pipeline
  // and match out of order.
  void HandleConnect(Shard& home, ClientConn& conn, uint64_t request_id,
                     std::span<const uint8_t> body);
  // Carries the client's end-to-end deadline: the uniqueness probe is a
  // peer RPC and must not outlive the budget. The reply waits for the
  // probe (FinishCreate).
  void HandleCreate(Shard& home, ClientConn& conn, uint64_t request_id,
                    std::span<const uint8_t> body, Deadline op_deadline);
  // Seal, Delete and Release acks wait for the peer work they imply: a
  // seal of a replicated object acks once its replicas are installed, an
  // origin's delete once its replicas are dropped, a release of a pinned
  // remote ref once the home store dropped the pin. The shard serves
  // other clients meanwhile.
  void HandleSeal(Shard& home, ClientConn& conn, uint64_t request_id,
                  std::span<const uint8_t> body);
  void HandleAbort(Shard& home, ClientConn& conn, uint64_t request_id,
                   std::span<const uint8_t> body);
  // Local-table pass only; the remote/missing halves are resolved for the
  // whole batch in ResolveGets.
  void HandleGet(Shard& home, ClientConn& conn, uint64_t request_id,
                 std::span<const uint8_t> body, Deadline op_deadline,
                 std::vector<PendingGet>* batch_gets);
  void HandleRelease(Shard& home, ClientConn& conn, uint64_t request_id,
                     std::span<const uint8_t> body);
  void HandleContains(Shard& home, ClientConn& conn, uint64_t request_id,
                      std::span<const uint8_t> body);
  void HandleDelete(Shard& home, ClientConn& conn, uint64_t request_id,
                    std::span<const uint8_t> body);
  // Fans out over every shard's table (scan).
  void HandleList(Shard& home, ClientConn& conn, uint64_t request_id);
  void HandleStats(Shard& home, ClientConn& conn, uint64_t request_id);
  void HandleShardStats(Shard& home, ClientConn& conn,
                        uint64_t request_id);
  void HandlePeerStats(Shard& home, ClientConn& conn,
                       uint64_t request_id);
  void HandleSubscribe(Shard& home, ClientConn& conn, uint64_t request_id,
                       std::span<const uint8_t> body);

  // Cross-shard fan-out through the mailboxes: `origin` (may be null for
  // non-shard callers) runs its part inline, every other shard gets a
  // posted task.
  void FanOutSealed(Shard* origin, const ObjectId& id);
  void FanOutNotification(Shard* origin, const Notification& notice);
  // Pushes a notification to this shard's subscriber connections (shard
  // thread only).
  void DeliverNotification(Shard& shard, const Notification& notice);

  // ---- resuming after peer work ----------------------------------------
  // Runs `fn(value)` on `shard`'s thread once `future` completes: inline
  // when it already has (the caller is on that shard's thread), through
  // the shard mailbox otherwise — unless the store stopped first.
  template <typename T, typename Fn>
  void When(Shard& shard, Future<T> future, Fn fn);
  // The connection behind `weak` if it is still served by `home` (a
  // continuation must not answer a dropped client, nor a newer client
  // that reuses its fd).
  std::shared_ptr<ClientConn> LiveConn(Shard& home,
                                       const std::weak_ptr<ClientConn>& weak);

  // Create after the uniqueness probe: re-check, allocate, reply.
  void FinishCreate(Shard& home, ClientConn& conn, uint64_t request_id,
                    const CreateRequest& request, bool exists_remotely);

  // Replication after a local Seal (and in the re-heal driver): when the
  // entry wants more copies than it has and dist hooks are wired,
  // restores a spilled entry, takes one table ref on it and hands its
  // pool location and the Crc32 of its bytes to the dist layer, whose
  // chosen peers pull the bytes over the fabric and check them against
  // the CRC. While the ref is held, eviction and spill skip the
  // object and a Delete or replica drop is refused as in use. nullopt
  // (and no ref) when there is nothing to push. MergeReplicas must then
  // run once per push, with or without acceptors: it drops the ref and
  // folds the acceptors into the entry's copy set.
  struct ReplicaPush {
    uint32_t origin = 0;
    uint64_t bytes = 0;  // data + metadata, per copy
    Future<std::vector<uint32_t>> accepted;
  };
  std::optional<ReplicaPush> StartReplication(Shard& owner,
                                              const ObjectId& id);
  void MergeReplicas(Shard& owner, const ObjectId& id, uint32_t origin,
                     const std::vector<uint32_t>& accepted);

  // Completes a batch of local-pass Gets: one DistHooks::LookupRemote for
  // the union of unknown ids, then each get adopts what was found
  // (ContinueGets) and replies or parks on its deadline.
  void ResolveGets(Shard& home, ClientConn& conn,
                   std::vector<PendingGet>& gets);
  // One Get waiting on peer work. Home shard thread only: every step
  // runs there. `outstanding` counts the pins and retry lookups in
  // flight; the get finishes when it drops to zero. `final_pass` marks
  // an expired get's last look: it replies instead of parking.
  struct GetResolution {
    PendingGet pending;
    uint32_t outstanding = 0;
    bool final_pass = false;
  };
  using Resolution = std::shared_ptr<GetResolution>;
  using ResolvedMap = std::unordered_map<ObjectId, RemoteObjectLocation>;
  // Resolves each get's missing ids against `resolved` (a remote lookup
  // for the whole batch), then finishes it once its pins landed.
  void ContinueGets(Shard& home, std::vector<PendingGet> gets,
                    const ResolvedMap& resolved, bool final_pass);
  // Expired gets' last look: local retry, then the stragglers' lookup.
  void FinishExpiredGets(Shard& shard, std::vector<PendingGet> expired,
                         const ResolvedMap& resolved);
  // Applies one resolved remote location to a waiting get (reply entry,
  // remote pin or mapped descriptor, per-connection ref bookkeeping).
  // `home` is the Get-serving shard (mapped-read counters accumulate
  // there). `count_hit` must match whether the look-up that produced
  // `loc` was counted in stats. With the mapped data plane on and a
  // generation-stamped location (and the get not forced pinned), the
  // object is handed out as an unpinned descriptor — no PinRemote RPC.
  // Otherwise the location reaches the client only once its pin landed;
  // a failed pin means the location was stale, and `may_retry` allows
  // one fresh lookup before the id counts as missing.
  void AdoptRemote(Shard& home, const Resolution& res, const ObjectId& id,
                   const RemoteObjectLocation& loc, bool count_hit,
                   bool may_retry);
  // Records an adopted remote object in the connection and the reply.
  void AdoptLocation(Shard& home, ClientConn& conn, PendingGet& pending,
                     const ObjectId& id, const RemoteObjectLocation& loc,
                     bool mapped, bool count_hit);
  // One piece of a get's peer work is done; finishes it after the last.
  void SettleGet(Shard& home, const Resolution& res);
  // Final local re-check of what is still missing, then reply or park.
  void FinishGet(Shard& home, const Resolution& res);

  // Allocates space from the owner shard's arena, evicting its LRU
  // unpinned objects if needed — to the shard's spill file when the
  // spill tier is enabled, destructively otherwise (or when the spill
  // write fails).
  // Mapped data plane write side: bumps `id`'s generation slot if a
  // table is wired (no-op otherwise). Call under the id's owner shard
  // mutex, and BEFORE the object's pool bytes are freed or rebound — a
  // fabric reader that copied bytes the transition invalidated must
  // observe the bump when it re-checks the generation after the copy.
  void BumpGeneration(const ObjectId& id);

  Result<alloc::Allocation> AllocateWithEviction(Shard& owner,
                                                 uint64_t size)
      REQUIRES(owner.mutex);
  [[nodiscard]] bool IsEvictable(const Shard& owner, const ObjectId& id) const
      REQUIRES(owner.mutex);

  // Promotes a spilled object back into the pool (allocating with
  // eviction, verifying the record CRC) and returns the now-sealed
  // entry. An unreadable record drops the object and returns the read
  // error.
  Result<ObjectEntry> RestoreSpilled(Shard& owner, const ObjectId& id)
      REQUIRES(owner.mutex);
  // Compacts the shard's spill file when its freed capacity crosses the
  // threshold, rewriting spilled entries' file offsets.
  void MaybeCompactSpill(Shard& owner) REQUIRES(owner.mutex);

  // Resolves one id against its owner shard for a local Get: a hit pins
  // and returns an entry; unknown ids return nullopt (caller consults
  // the dist layer). Takes the owner shard's mutex.
  std::optional<GetReplyEntry> TryLocalGet(ClientConn& conn,
                                           const ObjectId& id);

  // Completes this shard's pending gets waiting on `id` after it was
  // sealed (shard thread only).
  void ServePendingGetsFor(Shard& shard, const ObjectId& id);
  // Replies to this shard's expired pending gets; returns ms until the
  // next deadline (or -1 when none pending).
  int FlushExpiredPendingGets(Shard& shard);
  void ReplyPendingGet(Shard& shard, PendingGet& pending);

  StoreOptions options_;
  std::string socket_path_;
  // Shared with every continuation still waiting on the dist layer; Stop
  // closes it, so a peer reply landing after the store stopped is
  // dropped instead of posting to a shard that is going away.
  struct Gate {
    Mutex mutex;
    bool open GUARDED_BY(mutex) = true;
  };
  std::shared_ptr<Gate> gate_ = std::make_shared<Gate>();
  uint32_t node_id_ = 0;
  uint32_t pool_region_ = UINT32_MAX;

  // Pool memory: standalone stores own `own_pool_`; fabric stores borrow
  // the node slab window. `pool_base_` points at offset 0 of the pool.
  std::optional<net::MemfdSegment> own_pool_;
  tf::Fabric* fabric_ = nullptr;
  tf::NodeMemory* fabric_node_ = nullptr;
  uint64_t pool_slab_offset_ = 0;
  uint8_t* pool_base_ = nullptr;
  int pool_fd_ = -1;

  // The pool carved into per-shard arenas; shards_[i] borrows arena i.
  std::unique_ptr<alloc::ShardedAllocator> pool_alloc_;
  std::vector<std::unique_ptr<Shard>> shards_;

  DistHooks* dist_hooks_ = nullptr;
  // Shared-index writer; serialized across shards by index_mutex_. The
  // lock order (shard mutex first, index mutex second) is declared on
  // Shard::mutex via ACQUIRED_BEFORE. The pointer itself is written
  // once before Start (SetSharedIndex) and read without the lock; every
  // dereference happens under index_mutex_ (PT_GUARDED_BY).
  Mutex index_mutex_;
  SharedIndexWriter* shared_index_ PT_GUARDED_BY(index_mutex_) = nullptr;
  uint32_t index_region_ = UINT32_MAX;

  // Generation table (mapped data plane). Written once before Start
  // (SetGenerationTable); the table itself is lock-free — Bump() is a
  // per-slot atomic fetch_add — so no mutex guards the dereference.
  // Ordering against index withdrawal/publication comes from the owning
  // shard's mutex at every bump site.
  GenerationTable* gen_table_ = nullptr;
  uint32_t gen_region_ = UINT32_MAX;

  // Store-wide remote-lookup counters (updated from any shard thread).
  std::atomic<uint64_t> remote_lookups_{0};
  std::atomic<uint64_t> remote_lookup_hits_{0};

  // ---- re-heal driver (k-way replication) ------------------------------
  // One worker thread drains dead-node ids queued by RequestReheal; the
  // replicate RPCs it issues must never run on the RPC server thread
  // that delivered the death (deadlock: that thread serves our peers).
  void RehealLoop();
  // One round: scan every shard for objects that held a copy on `dead`,
  // strip the corpse, and re-replicate what fell below its desired
  // count (this node acting only where it is the elected healer).
  void RehealForDeadNode(uint32_t dead);
  // Idle-time pass of the re-heal worker: re-pushes any object still
  // below its desired copy count. A re-heal round whose pushes failed
  // (target partitioned, peer flapping) leaves objects degraded with
  // no dead node left in their copy sets to re-trigger on — this
  // sweep is how they converge once the network heals. Returns the
  // number of copies pushed (0 = no progress, caller backs off).
  uint64_t RehealSweep();
  // Both passes end here: pushes a fresh copy of every elected object
  // through the seal-time path (StartReplication, MergeReplicas), folds
  // the copies accepted into the reheal counters, and logs them under
  // `pass`. Returns the number of copies accepted.
  uint64_t HealObjects(
      const std::vector<std::pair<Shard*, ObjectId>>& to_heal,
      const std::string& pass);

  // Queue bound: a flood of death reports (flapping detector, chaos)
  // queues at most this many distinct nodes; the rest are dropped and
  // re-reported by a later health round. Far above any realistic
  // cluster size, so genuine deaths are never dropped.
  static constexpr size_t kMaxRehealQueue = 128;

  std::thread reheal_thread_;
  Mutex reheal_mutex_;
  CondVar reheal_cv_;
  std::vector<uint32_t> reheal_queue_ GUARDED_BY(reheal_mutex_);
  // Queued + in-flight rounds (PendingReheals test hook).
  uint64_t reheal_inflight_ GUARDED_BY(reheal_mutex_) = 0;
  bool reheal_running_ GUARDED_BY(reheal_mutex_) = false;

  // Re-heal progress counters (StoreStats::reheal_*).
  std::atomic<uint64_t> reheal_copies_{0};
  std::atomic<uint64_t> reheal_bytes_{0};
  std::atomic<uint64_t> reheal_deduped_{0};
  std::atomic<uint64_t> reheal_dropped_{0};

  // Accept thread state.
  net::UniqueFd listen_fd_;
  net::Poller accept_poller_;
  std::thread accept_thread_;
  uint32_t next_shard_ = 0;     // accept thread only (round-robin)
  int accept_backoff_ms_ = 0;   // accept thread only

  std::atomic<bool> running_{false};
};

}  // namespace mdos::plasma
