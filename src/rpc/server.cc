#include "rpc/server.h"

#include <algorithm>

#include "common/clock.h"
#include "common/log.h"
#include "net/frame.h"
#include "net/socket.h"

namespace mdos::rpc {

RpcServer::~RpcServer() { Stop(); }

void RpcServer::RegisterHandler(std::string method, Handler handler) {
  handlers_[std::move(method)] = std::move(handler);
}

Status RpcServer::Start(uint16_t port) {
  if (running_.load()) return Status::Invalid("server already running");
  MDOS_ASSIGN_OR_RETURN(listen_fd_, net::TcpListen(port, &port_));
  running_.store(true);
  poller_.Add(listen_fd_.get());
  thread_ = std::thread([this] { ServeLoop(); });
  return Status::OK();
}

void RpcServer::Stop() {
  if (!running_.exchange(false)) {
    if (thread_.joinable()) thread_.join();
    return;
  }
  poller_.Wakeup();
  if (thread_.joinable()) thread_.join();
  // Deregister surviving connections before closing them so a Stop/Start
  // cycle (peer restart on the same port) reuses a clean poller.
  for (const auto& [fd, conn] : connections_) {
    (void)conn;
    poller_.Remove(fd);
  }
  connections_.clear();
  poller_.Remove(listen_fd_.get());
  listen_fd_.Reset();
}

ServerStats RpcServer::stats() const {
  MutexLock lock(stats_mutex_);
  return stats_;
}

void RpcServer::ServeLoop() {
  while (running_.load()) {
    auto ready =
        poller_.Wait(/*timeout_ms=*/200, [this](int fd, uint32_t events) {
          if (fd == listen_fd_.get()) {
            auto conn_fd = net::Accept(listen_fd_.get());
            if (conn_fd.ok()) {
              (void)net::SetNoDelay(conn_fd->get());
              // Non-blocking: EAGAIN (not a parked send) is the signal
              // that a peer has stopped draining its socket.
              MDOS_WARN_IF_ERROR(net::SetNonBlocking(conn_fd->get()),
                                 "marking accepted peer socket non-blocking");
              int cfd = conn_fd->get();
              auto conn = std::make_unique<Conn>();
              conn->fd = std::move(conn_fd).value();
              poller_.Add(cfd);
              connections_.emplace(cfd, std::move(conn));
            }
            return;
          }
          auto it = connections_.find(fd);
          if (it == connections_.end()) return;
          if (events & net::kPollerWritable) {
            FlushConn(*it->second);
            it = connections_.find(fd);  // may have been dropped
            if (it == connections_.end()) return;
          }
          if (events & net::kPollerReadable) HandleReadable(*it->second);
        });
    if (!ready.ok()) {
      MDOS_LOG_ERROR << "rpc server poll failed: " << ready.status();
      break;
    }
  }
}

void RpcServer::HandleReadable(Conn& conn) {
  int fd = conn.fd.get();
  // Read in bounded chunks, serving each chunk's complete request frames
  // before reading on: a peer pipelining many large requests (replica
  // pushes) then costs one chunk of receive scratch, not the whole burst.
  // Responses coalesce into the egress queue and leave in one gather
  // write below. A chunk's requests share its arrival timestamp: one at
  // the tail whose deadline budget is burned by the heads is shed.
  net::ReadState state = net::ReadState::kMore;
  Status parse = Status::OK();
  while (state == net::ReadState::kMore && parse.ok()) {
    state = net::ReadAvailable(fd, &conn.inbuf, net::kReadChunkBytes);
    const int64_t arrival_ns = MonotonicNanos();
    size_t offset = 0;
    while (offset < conn.inbuf.size()) {
      net::FrameView view;
      size_t consumed = 0;
      parse = net::DecodeFrameView(conn.inbuf.data() + offset,
                                   conn.inbuf.size() - offset, &view,
                                   &consumed);
      if (!parse.ok() || consumed == 0) break;
      if (view.type != kRequestFrame) {
        parse = Status::ProtocolError("unexpected frame type");
        break;
      }
      offset += consumed;
      parse = ServeRequest(conn, view.payload, view.size, arrival_ns);
      if (!parse.ok()) break;
    }
    conn.inbuf.erase(conn.inbuf.begin(),
                     conn.inbuf.begin() + static_cast<ptrdiff_t>(offset));
  }

  if (!parse.ok() || state == net::ReadState::kClosed) {
    // Best effort: pipelined responses already queued still leave.
    // mdos-check: allow-discard(final courtesy flush to a connection already condemned; CloseConnection follows on either outcome)
    if (!conn.tx.empty()) (void)conn.tx.Flush(fd);
    CloseConnection(fd);
    return;
  }
  FlushConn(conn);
}

Status RpcServer::ServeRequest(Conn& conn, const uint8_t* payload,
                               size_t size, int64_t arrival_ns) {
  // Envelope first: shedding must not pay for the payload copy.
  wire::Reader reader(payload, size);
  auto view = wire::Decode<RpcRequestView>(reader);
  if (!view.ok()) return view.status();

  RpcResponse response;
  response.call_id = view->call_id;

  // Shed work whose end-to-end budget already lapsed while earlier
  // requests in this batch held the service thread. deadline_ms is the
  // budget remaining when the client sent the request; the server can
  // only observe time elapsed since the frame arrived here (no cross-
  // host clock sync), which is exactly the queueing delay it inflicted.
  const uint64_t budget_ms = view->deadline_ms;
  const bool has_deadline =
      budget_ms > 0 && budget_ms < static_cast<uint64_t>(INT32_MAX);
  if (has_deadline &&
      MonotonicNanos() - arrival_ns >=
          static_cast<int64_t>(budget_ms) * 1'000'000) {
    response.code = StatusCode::kDeadlineExceeded;
    response.error = "server shed '" + std::string(view->method) +
                     "': deadline passed before dispatch";
    wire::Writer writer;
    writer.Adopt(conn.tx.AcquireBuffer());
    wire::Encode(writer, response);
    {
      MutexLock lock(stats_mutex_);
      ++stats_.calls;
      ++stats_.errors;
      ++stats_.shed;
      stats_.bytes_in += size;
      stats_.bytes_out += writer.size();
    }
    return conn.tx.Append(kResponseFrame, writer.TakeBuffer());
  }

  int64_t delay = service_delay_ns_.load(std::memory_order_relaxed);
  // mdos-check: allow-blocking(test-only service-time injection knob; zero in production, bounded by the configured delay in tests)
  if (delay > 0) SpinForNanos(delay);

  auto it = handlers_.find(view->method);
  if (it == handlers_.end()) {
    response.code = StatusCode::kInvalid;
    response.error = "unknown method: " + std::string(view->method);
  } else {
    // Materialize the payload only for requests actually served.
    std::vector<uint8_t> body(view->payload.begin(), view->payload.end());
    auto result = it->second(body);
    if (result.ok()) {
      response.payload = std::move(result).value();
    } else {
      response.code = result.status().code();
      response.error = result.status().message();
    }
  }

  // Encode into a recycled buffer and queue; flushing happens once per
  // readable batch.
  wire::Writer writer;
  writer.Adopt(conn.tx.AcquireBuffer());
  wire::Encode(writer, response);
  // Account the call before the response leaves: once the client has the
  // reply, the server's counters must already reflect it.
  {
    MutexLock lock(stats_mutex_);
    ++stats_.calls;
    if (response.code != StatusCode::kOk) ++stats_.errors;
    stats_.bytes_in += size;
    stats_.bytes_out += writer.size();
  }
  return conn.tx.Append(kResponseFrame, writer.TakeBuffer());
}

void RpcServer::FlushConn(Conn& conn) {
  int fd = conn.fd.get();
  auto state = conn.tx.Flush(fd);
  if (!state.ok()) {
    CloseConnection(fd);
    return;
  }
  if (*state == net::TxQueue::FlushState::kBlocked) {
    if (!conn.write_armed) {
      poller_.SetWriteInterest(fd, true);
      conn.write_armed = true;
    }
  } else if (conn.write_armed) {
    poller_.SetWriteInterest(fd, false);
    conn.write_armed = false;
  }
}

void RpcServer::CloseConnection(int fd) {
  poller_.Remove(fd);
  connections_.erase(fd);
}

}  // namespace mdos::rpc
