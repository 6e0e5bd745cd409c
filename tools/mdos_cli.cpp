// mdos_cli — command-line client for a running mdos_store.
//
//   mdos_cli -s /tmp/mdos.sock put <name> <data...>
//   mdos_cli -s /tmp/mdos.sock get <name>
//   mdos_cli -s /tmp/mdos.sock contains <name>
//   mdos_cli -s /tmp/mdos.sock delete <name>
//   mdos_cli -s /tmp/mdos.sock list
//   mdos_cli -s /tmp/mdos.sock stats
//   mdos_cli -s /tmp/mdos.sock health
//   mdos_cli -s /tmp/mdos.sock watch [count]
//
// Object names are hashed to deterministic 20-byte ids with
// ObjectId::FromName, so `put foo ...` and `get foo` agree across
// invocations and processes.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "plasma/client.h"

using namespace mdos;

namespace {

int Fail(const Status& status) {
  std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
  return 1;
}

int CmdPut(plasma::PlasmaClient& client, int argc, char** argv) {
  if (argc < 1) {
    std::fprintf(stderr, "put needs a name\n");
    return 2;
  }
  std::string name = argv[0];
  std::string data;
  for (int i = 1; i < argc; ++i) {
    if (i > 1) data += ' ';
    data += argv[i];
  }
  Status status = client.CreateAndSeal(ObjectId::FromName(name), data);
  if (!status.ok()) return Fail(status);
  std::printf("sealed %s (%zu bytes) as %s\n", name.c_str(), data.size(),
              ObjectId::FromName(name).Hex().c_str());
  return 0;
}

int CmdGet(plasma::PlasmaClient& client, int argc, char** argv) {
  if (argc < 1) {
    std::fprintf(stderr, "get needs a name\n");
    return 2;
  }
  auto buffer = client.Get(ObjectId::FromName(argv[0]),
                           /*timeout_ms=*/2000);
  if (!buffer.ok()) return Fail(buffer.status());
  auto data = buffer->CopyData();
  if (!data.ok()) return Fail(data.status());
  std::fwrite(data->data(), 1, data->size(), stdout);
  std::printf("\n");
  (void)client.Release(ObjectId::FromName(argv[0]));
  return 0;
}

int CmdContains(plasma::PlasmaClient& client, int argc, char** argv) {
  if (argc < 1) return 2;
  auto contains = client.Contains(ObjectId::FromName(argv[0]));
  if (!contains.ok()) return Fail(contains.status());
  std::printf("%s\n", *contains ? "yes" : "no");
  return *contains ? 0 : 1;
}

int CmdDelete(plasma::PlasmaClient& client, int argc, char** argv) {
  if (argc < 1) return 2;
  Status status = client.Delete(ObjectId::FromName(argv[0]));
  if (!status.ok()) return Fail(status);
  std::printf("deleted\n");
  return 0;
}

int CmdList(plasma::PlasmaClient& client) {
  auto list = client.List();
  if (!list.ok()) return Fail(list.status());
  std::printf("%-42s %-10s %-8s %-6s\n", "id", "bytes", "sealed", "refs");
  for (const auto& info : *list) {
    std::printf("%-42s %-10llu %-8s %-6u\n", info.id.Hex().c_str(),
                static_cast<unsigned long long>(info.data_size +
                                                info.metadata_size),
                info.spilled ? "disk" : (info.sealed ? "yes" : "no"),
                info.ref_count);
  }
  std::printf("(%zu objects)\n", list->size());
  return 0;
}

int CmdStats(plasma::PlasmaClient& client) {
  auto stats = client.Stats();
  if (!stats.ok()) return Fail(stats.status());
  std::printf("capacity:            %llu\n",
              static_cast<unsigned long long>(stats->capacity));
  std::printf("bytes_in_use:        %llu\n",
              static_cast<unsigned long long>(stats->bytes_in_use));
  std::printf("objects_total:       %llu\n",
              static_cast<unsigned long long>(stats->objects_total));
  std::printf("objects_sealed:      %llu\n",
              static_cast<unsigned long long>(stats->objects_sealed));
  std::printf("evictions:           %llu\n",
              static_cast<unsigned long long>(stats->evictions));
  std::printf("remote_lookups:      %llu\n",
              static_cast<unsigned long long>(stats->remote_lookups));
  std::printf("remote_lookup_hits:  %llu\n",
              static_cast<unsigned long long>(stats->remote_lookup_hits));
  std::printf("spilled_objects:     %llu\n",
              static_cast<unsigned long long>(stats->spilled_objects));
  std::printf("spilled_bytes:       %llu\n",
              static_cast<unsigned long long>(stats->spilled_bytes));
  std::printf("spills:              %llu\n",
              static_cast<unsigned long long>(stats->spills));
  std::printf("spill_restores:      %llu\n",
              static_cast<unsigned long long>(stats->spill_restores));
  std::printf("frames_tx:           %llu\n",
              static_cast<unsigned long long>(stats->frames_tx));
  std::printf("frames_coalesced:    %llu\n",
              static_cast<unsigned long long>(stats->frames_coalesced));
  std::printf("writev_calls:        %llu\n",
              static_cast<unsigned long long>(stats->writev_calls));
  std::printf("bytes_tx:            %llu\n",
              static_cast<unsigned long long>(stats->bytes_tx));
  std::printf("egress_blocked:      %llu\n",
              static_cast<unsigned long long>(stats->egress_blocked_events));
  // Peer health (cluster failure handling); all zero without peers.
  std::printf("peers:               %llu (%llu healthy, %llu suspect, "
              "%llu dead)\n",
              static_cast<unsigned long long>(stats->peers_total),
              static_cast<unsigned long long>(stats->peers_healthy),
              static_cast<unsigned long long>(stats->peers_suspect),
              static_cast<unsigned long long>(stats->peers_dead));
  std::printf("peer_failed_rpcs:    %llu\n",
              static_cast<unsigned long long>(stats->peer_failed_rpcs));
  std::printf("peer_reconnects:     %llu\n",
              static_cast<unsigned long long>(stats->peer_reconnects));
  std::printf("peer_heartbeats:     %llu\n",
              static_cast<unsigned long long>(stats->peer_heartbeats));
  // Mapped data plane (zero-RPC remote reads); all zero unless the
  // store has a generation table (NodeOptions::mapped_remote_reads).
  std::printf("mapped_reads:        %llu\n",
              static_cast<unsigned long long>(stats->mapped_reads));
  std::printf("mapped_bytes:        %llu\n",
              static_cast<unsigned long long>(stats->mapped_bytes));
  std::printf("mapped_fallbacks:    %llu\n",
              static_cast<unsigned long long>(stats->mapped_fallbacks));
  // k-way replication and re-heal progress; all zero when
  // replication_factor is 1 and no object opted in.
  std::printf("replicas_total:      %llu\n",
              static_cast<unsigned long long>(stats->replicas_total));
  std::printf("under_replicated:    %llu\n",
              static_cast<unsigned long long>(stats->under_replicated));
  std::printf("reheal_copies:       %llu\n",
              static_cast<unsigned long long>(stats->reheal_copies));
  std::printf("reheal_bytes:        %llu\n",
              static_cast<unsigned long long>(stats->reheal_bytes));

  // Per-peer health table (kPeerStats); skipped when the store has no
  // peers. Non-fatal like the shard table below.
  auto peers = client.PeerStats();
  if (peers.ok() && !peers->empty()) {
    std::printf("\n%-8s %-9s %-8s %-9s %-11s %-11s %-12s\n",
                "peer", "state", "streak", "failed", "reconnects",
                "heartbeats", "ms_since_ok");
    static const char* kStateNames[] = {"healthy", "suspect", "dead"};
    for (const auto& p : *peers) {
      const char* state =
          p.state < 3 ? kStateNames[p.state] : "?";
      std::printf("%-8u %-9s %-8llu %-9llu %-11llu %-11llu %-12lld\n",
                  p.node_id, state,
                  static_cast<unsigned long long>(p.failure_streak),
                  static_cast<unsigned long long>(p.failed_rpcs),
                  static_cast<unsigned long long>(p.reconnects),
                  static_cast<unsigned long long>(p.heartbeats),
                  static_cast<long long>(p.ms_since_ok));
    }
  }

  // Per-shard breakdown (GetStoreStats): exposes load balance across the
  // store's event-loop shards. Non-fatal: a store that predates the
  // message drops the connection on the unknown type, but the aggregate
  // above already printed.
  auto shards = client.ShardStats();
  if (!shards.ok()) {
    std::fprintf(stderr,
                 "(per-shard stats unavailable: %s)\n",
                 shards.status().ToString().c_str());
    return 0;
  }
  std::printf("\n%-6s %-8s %-9s %-9s %-12s %-12s %-10s %-9s %-9s %-12s %-9s "
              "%-10s %-10s %-9s %-12s %-8s %-10s %-12s %-9s %-9s %-9s\n",
              "shard", "clients", "objects", "sealed", "bytes", "arena",
              "evicted", "inflight", "spilled", "spill_bytes", "restores",
              "frames_tx", "coalesced", "writev", "bytes_tx", "blocked",
              "mapped", "map_bytes", "fallbacks", "replicas", "under_k");
  for (const auto& s : *shards) {
    std::printf(
        "%-6u %-8llu %-9llu %-9llu %-12llu %-12llu %-10llu %-9llu %-9llu "
        "%-12llu %-9llu %-10llu %-10llu %-9llu %-12llu %-8llu %-10llu "
        "%-12llu %-9llu %-9llu %-9llu\n",
        s.shard, static_cast<unsigned long long>(s.clients),
        static_cast<unsigned long long>(s.objects_total),
        static_cast<unsigned long long>(s.objects_sealed),
        static_cast<unsigned long long>(s.bytes_in_use),
        static_cast<unsigned long long>(s.arena_capacity),
        static_cast<unsigned long long>(s.evictions),
        static_cast<unsigned long long>(s.inflight_gets),
        static_cast<unsigned long long>(s.spilled_objects),
        static_cast<unsigned long long>(s.spilled_bytes),
        static_cast<unsigned long long>(s.spill_restores),
        static_cast<unsigned long long>(s.frames_tx),
        static_cast<unsigned long long>(s.frames_coalesced),
        static_cast<unsigned long long>(s.writev_calls),
        static_cast<unsigned long long>(s.bytes_tx),
        static_cast<unsigned long long>(s.egress_blocked_events),
        static_cast<unsigned long long>(s.mapped_reads),
        static_cast<unsigned long long>(s.mapped_bytes),
        static_cast<unsigned long long>(s.mapped_fallbacks),
        static_cast<unsigned long long>(s.replicas_total),
        static_cast<unsigned long long>(s.under_replicated));
  }
  std::printf("(%zu shards)\n", shards->size());
  return 0;
}

// Gray-failure triage view (see docs/operations.md): the deadline and
// hedging counters say whether the store is shedding expired work and
// routing around a slow replica, the per-peer table pairs each peer's
// health state with its smoothed call latency (the signal the hedging
// delay and replica ranking derive from), and the re-heal counters show
// whether the replication repair queue is keeping up or saturating.
int CmdHealth(plasma::PlasmaClient& client) {
  auto stats = client.Stats();
  if (!stats.ok()) return Fail(stats.status());
  std::printf("peers:               %llu (%llu healthy, %llu suspect, "
              "%llu dead)\n",
              static_cast<unsigned long long>(stats->peers_total),
              static_cast<unsigned long long>(stats->peers_healthy),
              static_cast<unsigned long long>(stats->peers_suspect),
              static_cast<unsigned long long>(stats->peers_dead));
  std::printf("deadline_exceeded:   %llu\n",
              static_cast<unsigned long long>(stats->deadline_exceeded));
  std::printf("hedged_reads:        %llu\n",
              static_cast<unsigned long long>(stats->hedged_reads));
  std::printf("hedge_wins:          %llu\n",
              static_cast<unsigned long long>(stats->hedge_wins));
  std::printf("hedge_budget_denied: %llu\n",
              static_cast<unsigned long long>(stats->hedge_budget_denied));
  std::printf("under_replicated:    %llu\n",
              static_cast<unsigned long long>(stats->under_replicated));
  std::printf("reheal_queue_depth:  %llu\n",
              static_cast<unsigned long long>(stats->reheal_queue_depth));
  std::printf("reheal_deduped:      %llu\n",
              static_cast<unsigned long long>(stats->reheal_deduped));
  std::printf("reheal_dropped:      %llu\n",
              static_cast<unsigned long long>(stats->reheal_dropped));

  auto peers = client.PeerStats();
  if (!peers.ok()) return Fail(peers.status());
  if (peers->empty()) {
    std::printf("(no peers)\n");
    return 0;
  }
  std::printf("\n%-8s %-9s %-12s %-8s %-9s %-11s %-12s\n", "peer", "state",
              "ewma_lat_us", "streak", "failed", "reconnects",
              "ms_since_ok");
  static const char* kStateNames[] = {"healthy", "suspect", "dead"};
  for (const auto& p : *peers) {
    const char* state = p.state < 3 ? kStateNames[p.state] : "?";
    char latency[24];
    if (p.ewma_latency_us < 0) {
      std::snprintf(latency, sizeof(latency), "-");
    } else {
      std::snprintf(latency, sizeof(latency), "%lld",
                    static_cast<long long>(p.ewma_latency_us));
    }
    std::printf("%-8u %-9s %-12s %-8llu %-9llu %-11llu %-12lld\n",
                p.node_id, state, latency,
                static_cast<unsigned long long>(p.failure_streak),
                static_cast<unsigned long long>(p.failed_rpcs),
                static_cast<unsigned long long>(p.reconnects),
                static_cast<long long>(p.ms_since_ok));
  }
  return 0;
}

int CmdWatch(const std::string& socket_path, int argc, char** argv) {
  int count = argc >= 1 ? std::atoi(argv[0]) : 10;
  auto listener =
      plasma::NotificationListener::Connect(socket_path, "mdos_cli");
  if (!listener.ok()) return Fail(listener.status());
  std::printf("watching %d notifications...\n", count);
  for (int i = 0; i < count; ++i) {
    auto notice = listener->Next(/*timeout_ms=*/0);
    if (!notice.ok()) return Fail(notice.status());
    std::printf("%s %s (%llu bytes)\n",
                notice->deleted ? "DELETED" : "SEALED ",
                notice->id.Hex().c_str(),
                static_cast<unsigned long long>(notice->data_size));
    std::fflush(stdout);
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::string socket_path;
  int arg = 1;
  if (arg + 1 < argc && std::strcmp(argv[arg], "-s") == 0) {
    socket_path = argv[arg + 1];
    arg += 2;
  }
  if (socket_path.empty() || arg >= argc) {
    std::fprintf(stderr,
                 "usage: %s -s <socket> "
                 "put|get|contains|delete|list|stats|health|watch "
                 "[args...]\n",
                 argv[0]);
    return 2;
  }
  std::string command = argv[arg++];

  if (command == "watch") {
    return CmdWatch(socket_path, argc - arg, argv + arg);
  }

  auto client = plasma::PlasmaClient::Connect(socket_path);
  if (!client.ok()) return Fail(client.status());
  if (command == "put") return CmdPut(**client, argc - arg, argv + arg);
  if (command == "get") return CmdGet(**client, argc - arg, argv + arg);
  if (command == "contains") {
    return CmdContains(**client, argc - arg, argv + arg);
  }
  if (command == "delete") {
    return CmdDelete(**client, argc - arg, argv + arg);
  }
  if (command == "list") return CmdList(**client);
  if (command == "stats") return CmdStats(**client);
  if (command == "health") return CmdHealth(**client);
  std::fprintf(stderr, "unknown command: %s\n", command.c_str());
  return 2;
}
