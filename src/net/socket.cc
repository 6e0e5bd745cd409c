#include "net/socket.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <netinet/tcp.h>
#include <sys/ioctl.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstring>
#include <thread>

#include "common/clock.h"

namespace mdos::net {
namespace {

Status FillUdsAddr(const std::string& path, sockaddr_un* addr) {
  if (path.size() >= sizeof(addr->sun_path)) {
    return Status::Invalid("socket path too long: " + path);
  }
  std::memset(addr, 0, sizeof(*addr));
  addr->sun_family = AF_UNIX;
  std::memcpy(addr->sun_path, path.c_str(), path.size() + 1);
  return Status::OK();
}

}  // namespace

Result<UniqueFd> UdsListen(const std::string& path, int backlog) {
  sockaddr_un addr;
  MDOS_RETURN_IF_ERROR(FillUdsAddr(path, &addr));
  UniqueFd fd(::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0));
  if (!fd) return Status::FromErrno("socket(AF_UNIX)");
  ::unlink(path.c_str());
  if (::bind(fd.get(), reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    return Status::FromErrno("bind(" + path + ")");
  }
  if (::listen(fd.get(), backlog) != 0) {
    return Status::FromErrno("listen(" + path + ")");
  }
  return fd;
}

Result<UniqueFd> UdsConnect(const std::string& path, int timeout_ms) {
  sockaddr_un addr;
  MDOS_RETURN_IF_ERROR(FillUdsAddr(path, &addr));
  const int64_t deadline = MonotonicNanos() + int64_t{timeout_ms} * 1000000;
  while (true) {
    UniqueFd fd(::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0));
    if (!fd) return Status::FromErrno("socket(AF_UNIX)");
    if (::connect(fd.get(), reinterpret_cast<sockaddr*>(&addr),
                  sizeof(addr)) == 0) {
      return fd;
    }
    // The store may not have created its socket yet; retry until deadline.
    if ((errno == ENOENT || errno == ECONNREFUSED) &&
        MonotonicNanos() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
      continue;
    }
    return Status::FromErrno("connect(" + path + ")");
  }
}

Result<UniqueFd> TcpListen(uint16_t port, uint16_t* bound_port,
                           int backlog) {
  UniqueFd fd(::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0));
  if (!fd) return Status::FromErrno("socket(AF_INET)");
  int one = 1;
  ::setsockopt(fd.get(), SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::bind(fd.get(), reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    return Status::FromErrno("bind(tcp)");
  }
  if (::listen(fd.get(), backlog) != 0) {
    return Status::FromErrno("listen(tcp)");
  }
  if (bound_port != nullptr) {
    socklen_t len = sizeof(addr);
    if (::getsockname(fd.get(), reinterpret_cast<sockaddr*>(&addr), &len) !=
        0) {
      return Status::FromErrno("getsockname");
    }
    *bound_port = ntohs(addr.sin_port);
  }
  return fd;
}

Result<UniqueFd> TcpConnect(const std::string& host, uint16_t port,
                            int timeout_ms) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    return Status::Invalid("bad IPv4 address: " + host);
  }
  const int64_t deadline = MonotonicNanos() + int64_t{timeout_ms} * 1000000;
  while (true) {
    UniqueFd fd(::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0));
    if (!fd) return Status::FromErrno("socket(AF_INET)");
    if (::connect(fd.get(), reinterpret_cast<sockaddr*>(&addr),
                  sizeof(addr)) == 0) {
      (void)SetNoDelay(fd.get());
      return fd;
    }
    if (errno == ECONNREFUSED && MonotonicNanos() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
      continue;
    }
    return Status::FromErrno("connect(tcp)");
  }
}

Result<UniqueFd> TcpConnectStart(const std::string& host, uint16_t port,
                                 bool* in_progress) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    return Status::Invalid("bad IPv4 address: " + host);
  }
  UniqueFd fd(
      ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0));
  if (!fd) return Status::FromErrno("socket(AF_INET)");
  *in_progress = false;
  if (::connect(fd.get(), reinterpret_cast<sockaddr*>(&addr),
                sizeof(addr)) != 0) {
    if (errno != EINPROGRESS) return Status::FromErrno("connect(tcp)");
    *in_progress = true;
  }
  (void)SetNoDelay(fd.get());
  return fd;
}

Status FinishConnect(int fd) {
  int err = 0;
  socklen_t len = sizeof(err);
  if (::getsockopt(fd, SOL_SOCKET, SO_ERROR, &err, &len) != 0) {
    return Status::FromErrno("getsockopt(SO_ERROR)");
  }
  if (err != 0) {
    errno = err;
    return Status::FromErrno("connect(tcp)");
  }
  return Status::OK();
}

Result<UniqueFd> Accept(int listen_fd) {
  while (true) {
    int fd = ::accept4(listen_fd, nullptr, nullptr, SOCK_CLOEXEC);
    if (fd >= 0) return UniqueFd(fd);
    if (errno == EINTR) continue;
    return Status::FromErrno("accept");
  }
}

UniqueFd TryAccept(int listen_fd, int* errno_out) {
  while (true) {
    int fd = ::accept4(listen_fd, nullptr, nullptr, SOCK_CLOEXEC);
    if (fd >= 0) {
      *errno_out = 0;
      return UniqueFd(fd);
    }
    if (errno == EINTR) continue;
    if (errno == EWOULDBLOCK) {
      *errno_out = EAGAIN;
    } else {
      *errno_out = errno;
    }
    return UniqueFd();
  }
}

Status SetNonBlocking(int fd) {
  int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0) return Status::FromErrno("fcntl(F_GETFL)");
  if (::fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0) {
    return Status::FromErrno("fcntl(F_SETFL)");
  }
  return Status::OK();
}

Status WriteAll(int fd, const void* data, size_t size) {
  const uint8_t* p = static_cast<const uint8_t*>(data);
  size_t done = 0;
  while (done < size) {
    // MSG_NOSIGNAL: a peer that disappeared mid-write must surface as
    // EPIPE, not kill the process with SIGPIPE.
    ssize_t n = ::send(fd, p + done, size - done, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::FromErrno("write");
    }
    if (n == 0) return Status::IoError("write returned 0");
    done += static_cast<size_t>(n);
  }
  return Status::OK();
}

Status WritevAll(int fd, struct iovec* iov, int iovcnt) {
  while (iovcnt > 0) {
    msghdr msg{};
    msg.msg_iov = iov;
    msg.msg_iovlen = static_cast<size_t>(iovcnt);
    // sendmsg instead of writev for MSG_NOSIGNAL: a peer that vanished
    // mid-write must surface as EPIPE, not kill the process.
    ssize_t n = ::sendmsg(fd, &msg, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::FromErrno("writev");
    }
    if (n == 0) return Status::IoError("writev returned 0");
    size_t done = static_cast<size_t>(n);
    while (iovcnt > 0 && done >= iov->iov_len) {
      done -= iov->iov_len;
      ++iov;
      --iovcnt;
    }
    if (iovcnt > 0 && done > 0) {
      iov->iov_base = static_cast<uint8_t*>(iov->iov_base) + done;
      iov->iov_len -= done;
    }
  }
  return Status::OK();
}

Result<bool> WaitWritable(int fd, int timeout_ms) {
  pollfd pfd{fd, POLLOUT, 0};
  while (true) {
    int n = ::poll(&pfd, 1, timeout_ms);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::FromErrno("poll(POLLOUT)");
    }
    return n > 0;
  }
}

Status ReadAll(int fd, void* data, size_t size) {
  uint8_t* p = static_cast<uint8_t*>(data);
  size_t done = 0;
  while (done < size) {
    ssize_t n = ::read(fd, p + done, size - done);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::FromErrno("read");
    }
    if (n == 0) {
      if (done == 0) {
        return Status::NotConnected("peer closed connection");
      }
      return Status::ProtocolError("EOF mid-message");
    }
    done += static_cast<size_t>(n);
  }
  return Status::OK();
}

ReadState ReadAvailable(int fd, std::vector<uint8_t>* buf,
                        size_t max_bytes) {
  size_t budget = max_bytes;
  while (budget > 0) {
    int avail = 0;
    if (::ioctl(fd, FIONREAD, &avail) != 0 || avail <= 0) avail = 4096;
    const size_t want = std::min(static_cast<size_t>(avail), budget);
    const size_t base = buf->size();
    buf->resize(base + want);
    ssize_t n = ::recv(fd, buf->data() + base, want, MSG_DONTWAIT);
    if (n > 0) {
      buf->resize(base + static_cast<size_t>(n));
      budget -= static_cast<size_t>(n);
      if (static_cast<size_t>(n) < want) return ReadState::kDrained;
      continue;
    }
    buf->resize(base);
    if (n == 0) return ReadState::kClosed;
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) return ReadState::kDrained;
    return ReadState::kClosed;
  }
  return ReadState::kMore;
}

Status SetNoDelay(int fd) {
  int one = 1;
  if (::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one)) != 0) {
    return Status::FromErrno("setsockopt(TCP_NODELAY)");
  }
  return Status::OK();
}

std::string UniqueSocketPath(std::string_view tag) {
  static std::atomic<uint64_t> counter{0};
  uint64_t n = counter.fetch_add(1);
  std::string path = "/tmp/mdos-";
  path += tag;
  path += "-";
  path += std::to_string(::getpid());
  path += "-";
  path += std::to_string(n);
  path += ".sock";
  return path;
}

}  // namespace mdos::net
