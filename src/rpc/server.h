// RpcServer — synchronous unary RPC service endpoint.
//
// Mirrors the paper's gRPC configuration: "the gRPC server requires a
// dedicated thread to service all calls synchronously" (§IV-A2). A single
// server thread multiplexes all peer connections and executes handlers
// inline, one call at a time — the same serialization behaviour as a sync
// gRPC server with one completion thread. Handlers therefore need no
// internal locking against each other, but they *do* run concurrently
// with the owning store's shard threads, which is exactly the concurrency
// the store's per-shard mutexes protect against.
//
// I/O is non-blocking end to end: requests drain into a per-connection
// receive scratch (a batch of pipelined calls is served in one pass) and
// responses leave through a per-connection egress queue (net/tx_queue.h)
// flushed with coalesced gather writes — a peer that stops draining its
// socket arms write interest instead of stalling every other peer's RPCs
// behind a blocking send.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/mutex.h"
#include "common/status.h"
#include "net/fd.h"
#include "net/poller.h"
#include "net/tx_queue.h"
#include "rpc/message.h"

namespace mdos::rpc {

// A handler consumes the request payload and produces a response payload.
using Handler =
    std::function<Result<std::vector<uint8_t>>(const std::vector<uint8_t>&)>;

struct ServerStats {
  uint64_t calls = 0;
  uint64_t errors = 0;
  uint64_t shed = 0;  // requests refused because their deadline passed
  uint64_t bytes_in = 0;
  uint64_t bytes_out = 0;
};

class RpcServer {
 public:
  RpcServer() = default;
  ~RpcServer();
  RpcServer(const RpcServer&) = delete;
  RpcServer& operator=(const RpcServer&) = delete;

  // Registers `handler` for `method`. Must be called before Start.
  void RegisterHandler(std::string method, Handler handler);

  // Binds 127.0.0.1:`port` (0 = ephemeral) and starts the service thread.
  Status Start(uint16_t port = 0);

  // Stops the service thread and closes all connections. Idempotent.
  void Stop();

  uint16_t port() const { return port_; }
  bool running() const { return running_.load(); }
  ServerStats stats() const EXCLUDES(stats_mutex_);

  // Optional per-call artificial service delay, modelling the remote
  // store's handler-side work in latency studies. 0 = disabled.
  void set_service_delay_ns(int64_t ns) { service_delay_ns_.store(ns); }

 private:
  // One peer connection: receive scratch + egress queue (service thread
  // only).
  struct Conn {
    net::UniqueFd fd;
    std::vector<uint8_t> inbuf;
    net::TxQueue tx;
    bool write_armed = false;
  };

  // The serve thread is an event loop: mdos-check forbids blocking
  // calls downstream of these (the handlers it dispatches into run on
  // this thread too).
  MDOS_EVENT_LOOP_CONTEXT void ServeLoop();
  MDOS_EVENT_LOOP_CONTEXT void HandleReadable(Conn& conn);
  // Runs one decoded request frame and queues its response. A failure
  // means the connection is corrupt and must be dropped (by the caller —
  // never drops it itself, the batch loop still holds the Conn).
  // `arrival_ns` is when the batch containing this frame was read off
  // the socket: requests whose stamped deadline budget elapsed while
  // earlier requests in the batch were being served are shed before
  // their payload is materialized.
  MDOS_EVENT_LOOP_CONTEXT Status ServeRequest(Conn& conn,
                                              const uint8_t* payload,
                                              size_t size,
                                              int64_t arrival_ns);
  // Flushes the connection's egress queue, arming/disarming write
  // interest; drops the connection on error.
  MDOS_EVENT_LOOP_CONTEXT void FlushConn(Conn& conn);
  void CloseConnection(int fd);

  // Transparent comparator: dispatch looks up by the string_view from
  // the envelope without materializing a key.
  std::map<std::string, Handler, std::less<>> handlers_;
  net::UniqueFd listen_fd_;
  uint16_t port_ = 0;
  std::thread thread_;
  std::atomic<bool> running_{false};
  std::atomic<int64_t> service_delay_ns_{0};
  net::Poller poller_;
  std::unordered_map<int, std::unique_ptr<Conn>> connections_;
  mutable Mutex stats_mutex_;
  ServerStats stats_ GUARDED_BY(stats_mutex_);
};

}  // namespace mdos::rpc
