#include "net/poller.h"

#include <fcntl.h>
#include <sys/epoll.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "common/log.h"

namespace mdos::net {

Poller::Poller() {
  int pipefd[2];
  // Non-blocking on both ends: the drain loop below must not hang, and a
  // full pipe must not block Wakeup callers.
  if (::pipe2(pipefd, O_NONBLOCK | O_CLOEXEC) != 0) {
    init_status_ = Status::FromErrno("pipe2");
    return;
  }
  wake_read_.Reset(pipefd[0]);
  wake_write_.Reset(pipefd[1]);
  epoll_fd_.Reset(::epoll_create1(EPOLL_CLOEXEC));
  if (!epoll_fd_.valid()) {
    init_status_ = Status::FromErrno("epoll_create1");
    return;
  }
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.fd = wake_read_.get();
  if (::epoll_ctl(epoll_fd_.get(), EPOLL_CTL_ADD, wake_read_.get(), &ev) !=
      0) {
    init_status_ = Status::FromErrno("epoll_ctl(wakeup pipe)");
  }
}

void Poller::EpollUpdate(int fd, bool write_interest, int op) {
  if (!init_status_.ok()) return;  // Wait reports the failure
  epoll_event ev{};
  // Read stays level-triggered while idle; arming write switches the
  // whole registration edge-triggered (see the header contract: armed
  // fds drain reads to EAGAIN).
  ev.events = write_interest ? (EPOLLIN | EPOLLOUT | EPOLLET) : EPOLLIN;
  ev.data.fd = fd;
  if (::epoll_ctl(epoll_fd_.get(), op, fd, &ev) != 0) {
    MDOS_LOG_WARN << "epoll_ctl(" << op << ", " << fd
                  << ") failed: " << strerror(errno);
  }
}

void Poller::Add(int fd) {
  if (!fds_.emplace(fd, false).second) return;  // already registered
  EpollUpdate(fd, /*write_interest=*/false, EPOLL_CTL_ADD);
}

void Poller::Remove(int fd) {
  if (fds_.erase(fd) == 0) return;
  if (init_status_.ok()) {
    ::epoll_ctl(epoll_fd_.get(), EPOLL_CTL_DEL, fd, nullptr);
  }
}

void Poller::SetWriteInterest(int fd, bool enabled) {
  auto it = fds_.find(fd);
  if (it == fds_.end() || it->second == enabled) return;
  it->second = enabled;
  // MOD re-arms the readiness scan: a fd that is already writable when
  // interest is armed delivers its edge immediately.
  EpollUpdate(fd, enabled, EPOLL_CTL_MOD);
}

Result<int> Poller::Wait(
    int timeout_ms,
    const std::function<void(int fd, uint32_t events)>& on_event) {
  MDOS_RETURN_IF_ERROR(init_status_);
  epoll_event events[64];
  int n = ::epoll_wait(epoll_fd_.get(), events, 64, timeout_ms);
  if (n < 0) {
    if (errno == EINTR) return 0;
    return Status::FromErrno("epoll_wait");
  }
  int ready = 0;
  for (int i = 0; i < n; ++i) {
    int fd = events[i].data.fd;
    if (fd == wake_read_.get()) {
      char buf[64];
      while (::read(wake_read_.get(), buf, sizeof(buf)) > 0) {
      }
      continue;
    }
    uint32_t mask = 0;
    if (events[i].events & (EPOLLIN | EPOLLHUP | EPOLLERR)) {
      mask |= kPollerReadable;
    }
    if (events[i].events & (EPOLLOUT | EPOLLERR)) {
      mask |= kPollerWritable;
    }
    if (mask != 0) {
      ++ready;
      on_event(fd, mask);
    }
  }
  return ready;
}

void Poller::Wakeup() {
  char byte = 'W';
  // Best-effort; a full pipe already guarantees a pending wakeup.
  [[maybe_unused]] ssize_t n = ::write(wake_write_.get(), &byte, 1);
}

}  // namespace mdos::net
