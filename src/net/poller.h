// Poller — the readiness multiplexer driving the store's event loops.
//
// Each store shard services its subset of client connections from its own
// thread through its own Poller (the accept thread runs another over the
// listening socket, the RPC server a third over peer connections).
// Add/Remove/SetWriteInterest/Wait belong to the owning thread; Wakeup is
// the one thread-safe entry point — other shards use it to signal a
// posted mailbox task, and Stop uses it for shutdown.
//
// One epoll instance per Poller. Read interest is level-triggered; write
// interest is armed on demand and edge-triggered (EPOLLET) — a
// connection with queued egress residue arms EPOLLOUT, gets exactly one
// event per writability edge, and disarms once its queue drains, so an
// idle-writable socket never spins the loop. (epoll_ctl MOD re-arms: if
// the fd is already writable when interest is armed, the edge fires
// immediately — no lost wakeups.) A Poller whose epoll instance could
// not be created reports that from every Wait.
//
// Callers that arm write interest must drain reads to EAGAIN (both the
// store's batch reader and the RPC server do): while a fd is write-armed
// under epoll its read events are edge-triggered too.
#pragma once

#include <cstdint>
#include <functional>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "net/fd.h"

namespace mdos::net {

// Event bits passed to the Wait callback.
inline constexpr uint32_t kPollerReadable = 1u;
inline constexpr uint32_t kPollerWritable = 2u;

class Poller {
 public:
  Poller();

  // Registers/unregisters a fd. Registration always includes read
  // interest; write interest starts disarmed. Remove clears both.
  void Add(int fd);
  void Remove(int fd);

  // Arms/disarms write-readiness reporting for a registered fd. Armed
  // while (and only while) the fd's egress queue holds residue.
  void SetWriteInterest(int fd, bool enabled);

  // Waits up to `timeout_ms` (-1 = forever) and invokes
  // `on_event(fd, events)` for every ready fd, where `events` is a mask
  // of kPollerReadable / kPollerWritable (hang-ups and errors report as
  // readable so the read path observes them). Returns the number of
  // ready fds, 0 on timeout, or the error that left this Poller without
  // an epoll instance.
  Result<int> Wait(int timeout_ms,
                   const std::function<void(int fd, uint32_t events)>&
                       on_event);

  // Thread-safe: makes a concurrent/following Wait return immediately.
  void Wakeup();

 private:
  void EpollUpdate(int fd, bool write_interest, int op);

  // Why construction failed; Wait returns it.
  Status init_status_;
  UniqueFd epoll_fd_;
  // fd -> write interest armed.
  std::unordered_map<int, bool> fds_;
  UniqueFd wake_read_;
  UniqueFd wake_write_;
};

}  // namespace mdos::net
