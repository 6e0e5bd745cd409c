// Socket helpers: Unix domain sockets (Plasma store↔client IPC, matching
// upstream Plasma) and TCP loopback sockets (store↔store RPC, standing in
// for the paper's gRPC-over-LAN). All blocking I/O with full read/write
// loops; non-blocking accept is used by the store's poller.
#pragma once

#include <sys/uio.h>

#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "net/fd.h"

namespace mdos::net {

// --- Unix domain sockets -------------------------------------------------

// Creates, binds and listens on `path` (unlinks a stale socket file first).
Result<UniqueFd> UdsListen(const std::string& path, int backlog = 64);

// Connects to a listening UDS. Retries briefly while the server socket is
// being created, which removes start-up races in tests.
Result<UniqueFd> UdsConnect(const std::string& path,
                            int timeout_ms = 2000);

// --- TCP (loopback) ------------------------------------------------------

// Listens on 127.0.0.1:`port`; port 0 picks an ephemeral port. On success,
// `*bound_port` receives the actual port.
Result<UniqueFd> TcpListen(uint16_t port, uint16_t* bound_port,
                           int backlog = 64);

Result<UniqueFd> TcpConnect(const std::string& host, uint16_t port,
                            int timeout_ms = 2000);

// Starts a non-blocking connect (the socket is O_NONBLOCK). A refusal the
// kernel reports at once fails here; otherwise *in_progress says whether
// the handshake is still running — the caller then waits for the socket
// to turn writable and calls FinishConnect.
Result<UniqueFd> TcpConnectStart(const std::string& host, uint16_t port,
                                 bool* in_progress);
// Outcome of a connect started by TcpConnectStart (SO_ERROR).
Status FinishConnect(int fd);

// --- Common --------------------------------------------------------------

// Accepts one connection; blocks.
Result<UniqueFd> Accept(int listen_fd);

// Non-blocking accept for the store's accept loop (the listen fd must be
// O_NONBLOCK). Returns a valid fd on success. Returns an invalid fd with
// *errno_out = EAGAIN when the pending-connection queue is drained, and
// with the failing errno otherwise — the caller classifies transient
// resource exhaustion (EMFILE/ENFILE/ENOBUFS/ENOMEM) and backs off
// instead of tearing the loop down.
UniqueFd TryAccept(int listen_fd, int* errno_out);

// Sets O_NONBLOCK on a descriptor.
Status SetNonBlocking(int fd);

// Writes exactly `size` bytes (loops over partial writes / EINTR).
Status WriteAll(int fd, const void* data, size_t size);

// Gather-writes every byte of `iov` (sendmsg with MSG_NOSIGNAL; loops
// over partial writes / EINTR, adjusting the iovec array in place).
Status WritevAll(int fd, struct iovec* iov, int iovcnt);

// Blocks until `fd` is writable or `timeout_ms` elapses (-1 = forever).
// Returns true when writable, false on timeout.
Result<bool> WaitWritable(int fd, int timeout_ms);

// Reads exactly `size` bytes. Returns NotConnected on clean EOF at offset
// zero and ProtocolError on EOF mid-message.
Status ReadAll(int fd, void* data, size_t size);

// Non-blocking receive for event loops: appends what `fd` has buffered to
// `buf` (sized via FIONREAD, so bytes land in place), at most `max_bytes`
// per call. kMore: it stopped at `max_bytes` and more may be queued (the
// caller consumes what it has, then reads on — which keeps a peer that
// pipelines large messages from ballooning the buffer); kDrained: the
// socket is empty (EAGAIN); kClosed: EOF or a receive error.
enum class ReadState : uint8_t { kMore, kDrained, kClosed };
// The chunk the RPC endpoints read at a time.
inline constexpr size_t kReadChunkBytes = 32u << 10;
ReadState ReadAvailable(int fd, std::vector<uint8_t>* buf, size_t max_bytes);

// Disables Nagle on a TCP socket (RPC latency matters in Fig. 6).
Status SetNoDelay(int fd);

// Generates a unique abstract-ish socket path under /tmp for tests.
std::string UniqueSocketPath(std::string_view tag);

}  // namespace mdos::net
