// RpcChannel — client side of the RPC framework: pipelined calls over one
// TCP connection per peer, completed by an I/O loop.
//
// A channel owns one TCP connection to a peer RpcServer. Calls are
// pipelined: CallAsync hands the request to the channel's ChannelLoop and
// returns a Future at once; the loop writes requests back to back
// without waiting for earlier replies and matches each reply to its call
// by the envelope's call_id. The blocking Call* methods are
// CallAsync(...).Take() for control paths (the Hello handshake,
// heartbeats, the re-heal worker, tests) and must never run on an event
// loop.
//
// ChannelLoop is the one thread that owns every socket of the channels
// attached to it (a RemoteStoreRegistry keeps one loop for all of its
// peers; a channel connected without a loop gets a private one). It
// drives a net::Poller, reads replies through the buffered
// DecodeFrameView path RpcServer uses, flushes requests through a
// net::TxQueue at the end of each pass, and keeps one timer list for call
// deadlines, injected link latency, the simulated RTT and redial backoff
// waits, and for its owner's timers (the registry's hedge delays).
// Futures complete on the loop thread, so their continuations must be
// cheap and must not block.
//
// Two bounds, two meanings:
//  - `timeout_ms` is a transport bound. A call still unanswered after it
//    fails with kTimeout and resets the connection (the peer stopped
//    answering), failing the other calls in flight on it; the next call
//    redials.
//  - a Deadline is the caller's budget. The remaining milliseconds are
//    stamped into every attempt's envelope, connectivity failures are
//    retried within it, and when it runs out only that call fails
//    (kDeadlineExceeded): a reply arriving later is discarded and the
//    connection stays up.
//
// Failure handling: a failed connection keeps the endpoint. The next call
// transparently redials (non-blocking connect, bounded attempts per
// call, exponential backoff with jitter between dial failures) instead of
// returning NotConnected forever — a peer restart heals without any
// caller intervention. While the backoff window is closed a call fails
// fast with kNotConnected (a deadline call waits the window out within
// its budget). Only an explicit Disconnect() retires the channel.
//
// `simulated_rtt_ns` adds latency per call so loopback TCP can model a
// data-centre LAN round trip: half before the request leaves, half after
// the reply arrives, as timers — pipelined calls pay it concurrently.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/deadline.h"
#include "common/future.h"
#include "common/mutex.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "net/fault_injector.h"
#include "net/fd.h"
#include "net/poller.h"
#include "rpc/message.h"
#include "wire/wire.h"

namespace mdos::rpc {

struct ChannelOptions {
  // Injected per-call latency modelling the data-centre LAN.
  int64_t simulated_rtt_ns = 0;
  // Reconnect policy. A call finding the channel disconnected makes up
  // to `redial_attempts` dial attempts (only when the backoff window has
  // elapsed); each consecutive dial failure doubles the wait between
  // redials from `redial_backoff_min_ms` up to `redial_backoff_max_ms`,
  // with ±25 % jitter so a mesh of peers does not redial in lockstep.
  // `redial_backoff_min_ms` also paces a deadline call's retry after an
  // injected drop, so a partitioned link cannot spin the loop.
  uint32_t redial_attempts = 1;
  uint32_t redial_backoff_min_ms = 10;
  uint32_t redial_backoff_max_ms = 1000;
};

struct ChannelStats {
  uint64_t calls = 0;
  uint64_t failures = 0;
  uint64_t reconnects = 0;       // successful redials after a failure
  uint64_t redial_failures = 0;  // dial attempts that failed
  uint64_t fast_failures = 0;    // calls refused inside the backoff window
  uint64_t deadline_exceeded = 0;  // calls that exhausted their budget
  uint64_t injected_faults = 0;    // messages dropped/delayed by injection
  int64_t total_call_ns = 0;     // wall time across all calls
};

using CallResult = Result<std::vector<uint8_t>>;

class RpcChannel;

// The I/O thread behind a set of channels. Shared by its channels (each
// holds a reference), so it lives until the last of them is gone; its
// owner stops it explicitly.
class ChannelLoop {
 public:
  ChannelLoop();
  ~ChannelLoop();
  ChannelLoop(const ChannelLoop&) = delete;
  ChannelLoop& operator=(const ChannelLoop&) = delete;

  // Stops the thread, then fails every call still pending on the loop's
  // channels with kCancelled (their continuations run on the stopping
  // thread). Idempotent; not callable from the loop thread.
  void Stop() EXCLUDES(post_mutex_);

  // Runs `task` on the loop thread. Thread-safe. Returns false, dropping
  // the task, once the loop has stopped.
  bool Post(std::function<void()> task) EXCLUDES(post_mutex_);
  [[nodiscard]] bool OnLoopThread() const {
    return std::this_thread::get_id() == thread_id_.load();
  }

  // Timers (loop thread only). `fn` runs on the loop thread at or after
  // `when_ns` (monotonic). Cancelling a timer that already fired is a
  // no-op.
  struct TimerId {
    int64_t when_ns = 0;
    uint64_t seq = 0;  // 0 = no timer
  };
  TimerId AddTimer(int64_t when_ns, std::function<void()> fn);
  void CancelTimer(TimerId& timer);

 private:
  friend class RpcChannel;
  struct Call;
  struct Link;

  MDOS_EVENT_LOOP_CONTEXT void Run();
  MDOS_EVENT_LOOP_CONTEXT void RunPosted() EXCLUDES(post_mutex_);
  MDOS_EVENT_LOOP_CONTEXT void RunDueTimers();
  MDOS_EVENT_LOOP_CONTEXT void FlushDirty();
  void ArmTimerFd();

  // Registration of a link's socket (loop thread).
  void Watch(int fd, std::shared_ptr<Link> link);
  void Unwatch(int fd);
  void MarkDirty(const std::shared_ptr<Link>& link);

  net::Poller poller_;
  net::UniqueFd timer_fd_;
  int64_t timer_fd_armed_ns_ = 0;  // deadline the timerfd is set to
  std::thread thread_;
  std::atomic<std::thread::id> thread_id_{};
  std::atomic<bool> running_{false};

  Mutex post_mutex_;
  std::vector<std::function<void()>> posted_ GUARDED_BY(post_mutex_);
  bool stopped_ GUARDED_BY(post_mutex_) = false;

  // ---- loop thread only (the stopping thread once the loop is joined) --
  std::map<std::pair<int64_t, uint64_t>, std::function<void()>> timers_;
  uint64_t next_timer_seq_ = 1;
  std::unordered_map<int, std::shared_ptr<Link>> fds_;
  std::vector<std::shared_ptr<Link>> dirty_;
  // Every link attached to this loop (retired links leave it).
  std::unordered_map<Link*, std::shared_ptr<Link>> links_;
};

class RpcChannel {
 public:
  ~RpcChannel();
  RpcChannel(const RpcChannel&) = delete;
  RpcChannel& operator=(const RpcChannel&) = delete;

  // Connects to `host`:`port` (blocking dial, like the handshake that
  // follows it) and attaches the connection to `loop`, or to a private
  // loop when none is given. Channels are shared by reference.
  static Result<std::shared_ptr<RpcChannel>> Connect(
      const std::string& host, uint16_t port, ChannelOptions options = {},
      std::shared_ptr<ChannelLoop> loop = nullptr);

  [[nodiscard]] bool connected() const;
  // Permanently retires the channel: no redial, every pending and later
  // call fails with kNotConnected. (Failure-triggered disconnects keep
  // the endpoint and heal on the next call instead.) The channel also
  // retires when its last reference is dropped.
  void Disconnect();

  // Pipelined calls. The request is queued at once; the future completes
  // on the loop thread (or immediately, for fail-fast refusals). The
  // timeout form takes a transport bound (0 = none); the deadline form
  // a caller budget (an infinite deadline means one attempt, no bound) —
  // see the header comment.
  Future<CallResult> CallAsync(const std::string& method,
                               std::vector<uint8_t> payload,
                               uint64_t timeout_ms = 0);
  Future<CallResult> CallAsync(const std::string& method,
                               std::vector<uint8_t> payload,
                               Deadline deadline);

  // Typed forms: encode `request`, decode the reply into ResponseT (on
  // the completing thread); both declare their wire `Fields`. `Bound`
  // is a timeout in ms or a Deadline.
  template <typename ResponseT, typename RequestT, typename Bound>
  Future<Result<ResponseT>> CallTypedAsync(const std::string& method,
                                           const RequestT& request,
                                           Bound bound) {
    wire::Writer w;
    wire::Encode(w, request);
    return CallAsync(method, w.TakeBuffer(), bound)
        .Then([](CallResult& reply) -> Result<ResponseT> {
          if (!reply.ok()) return reply.status();
          wire::Reader r(reply->data(), reply->size());
          return wire::Decode<ResponseT>(r);
        });
  }

  // Blocking wrappers (control paths only).
  CallResult Call(const std::string& method, std::vector<uint8_t> payload,
                  uint64_t timeout_ms = 0) {
    return CallAsync(method, std::move(payload), timeout_ms).Take();
  }
  CallResult CallWithDeadline(const std::string& method,
                              std::vector<uint8_t> payload,
                              Deadline deadline) {
    return CallAsync(method, std::move(payload), deadline).Take();
  }
  template <typename ResponseT, typename RequestT>
  Result<ResponseT> CallTyped(const std::string& method,
                              const RequestT& request,
                              uint64_t timeout_ms = 0) {
    return CallTypedAsync<ResponseT>(method, request, timeout_ms).Take();
  }

  // Installs the (cluster-owned) fault injector for this channel's
  // directed link. Requests consult self -> peer, responses peer ->
  // self, so one-way partitions behave asymmetrically. Passing nullptr
  // uninstalls.
  void SetFaultInjector(net::FaultInjector* injector, uint32_t self_node,
                        uint32_t peer_node);

  ChannelStats stats() const;
  int64_t simulated_rtt_ns() const { return simulated_rtt_ns_; }
  // The loop this channel's calls complete on.
  const std::shared_ptr<ChannelLoop>& loop() const { return loop_; }

 private:
  RpcChannel(std::shared_ptr<ChannelLoop> loop,
             std::shared_ptr<ChannelLoop::Link> link, int64_t rtt_ns)
      : loop_(std::move(loop)),
        link_(std::move(link)),
        simulated_rtt_ns_(rtt_ns) {}

  Future<CallResult> Submit(const std::string& method,
                            std::vector<uint8_t> payload,
                            uint64_t timeout_ms, Deadline deadline);

  std::shared_ptr<ChannelLoop> loop_;
  // The connection state the loop thread owns; it outlives this handle
  // until the loop has retired it.
  std::shared_ptr<ChannelLoop::Link> link_;
  int64_t simulated_rtt_ns_ = 0;
};

}  // namespace mdos::rpc
