#include "rpc/channel.h"

#include <sys/timerfd.h>
#include <unistd.h>

#include <algorithm>
#include <deque>

#include "common/clock.h"
#include "common/log.h"
#include "common/rng.h"
#include "net/frame.h"
#include "net/socket.h"
#include "net/tx_queue.h"

namespace mdos::rpc {

namespace {

// Transport-level failures a deadline call retries within its budget;
// application errors (including a server-side shed) are answers.
bool Retriable(const Status& st) {
  return st.Is(StatusCode::kIoError) || st.Is(StatusCode::kTimeout) ||
         st.Is(StatusCode::kNotConnected);
}

}  // namespace

// One call, possibly over several attempts (deadline calls retry).
// Touched by the submitting thread until it is handed to the loop, by
// the loop thread afterwards.
struct ChannelLoop::Call {
  std::string method;
  std::vector<uint8_t> payload;
  uint64_t timeout_ms = 0;  // transport bound (timeout calls), 0 = none
  Deadline deadline;        // finite: a deadline call
  uint64_t call_id = 0;     // the current attempt's envelope id
  int64_t attempt_start_ns = 0;
  int64_t attempt_deadline_ns = 0;  // 0 = unbounded attempt
  Status last = Status::OK();       // last transport failure
  TimerId timer;
  Promise<CallResult> promise;
  bool done = false;

  bool deadline_mode() const { return !deadline.infinite(); }
  // Safety net: a call dropped without an answer (its timer died with a
  // stopped loop) still completes its future.
  ~Call() {
    if (!done) {
      promise.Set(Status::Cancelled("rpc call '" + method + "' abandoned"));
    }
  }
};

// The connection behind one RpcChannel. Everything below the atomics and
// mutex-guarded fields belongs to the loop thread.
struct ChannelLoop::Link : std::enable_shared_from_this<Link> {
  using CallPtr = std::shared_ptr<Call>;

  Link(ChannelLoop* owner, std::string h, uint16_t p, ChannelOptions o)
      : loop(owner), host(std::move(h)), port(p), options(o) {}

  ChannelLoop* const loop;
  const std::string host;
  const uint16_t port;
  const ChannelOptions options;

  // ---- any thread --------------------------------------------------------
  std::atomic<bool> connected{false};
  std::atomic<bool> retired{false};
  mutable Mutex stats_mutex;
  ChannelStats stats GUARDED_BY(stats_mutex);
  mutable Mutex fault_mutex;
  net::FaultInjector* injector GUARDED_BY(fault_mutex) = nullptr;
  uint32_t self_node GUARDED_BY(fault_mutex) = 0;
  uint32_t peer_node GUARDED_BY(fault_mutex) = 0;

  // ---- loop thread -------------------------------------------------------
  enum class State : uint8_t { kDown, kConnecting, kUp, kRetired };
  State state = State::kDown;
  net::UniqueFd fd;
  std::vector<uint8_t> inbuf;
  net::TxQueue tx;
  bool write_armed = false;
  bool dirty = false;
  uint64_t next_call_id = 1;
  uint32_t dial_attempts_left = 0;
  uint32_t dial_failure_streak = 0;
  int64_t next_redial_ns = 0;
  uint64_t backoff_seed = 0x9E3779B97F4A7C15ULL;
  Status last_dial_error = Status::OK();
  // The connection broke while no call was on it; the next call reports
  // the loss (see Issue).
  bool lost = false;
  // Sent on the current connection and awaiting a reply, in send order.
  std::deque<CallPtr> inflight;
  // Waiting for the connect in progress.
  std::vector<CallPtr> waiting;

  std::string Endpoint() const { return host + ":" + std::to_string(port); }

  void Adopt(net::UniqueFd socket);
  void Issue(const CallPtr& call);
  void Attempt(const CallPtr& call);
  void Transmit(const CallPtr& call, std::vector<uint8_t> frame);
  void Deliver(const CallPtr& call, RpcResponse response);
  void OnResponse(RpcResponse response, size_t frame_bytes);
  void ReplyTimedOut(const CallPtr& call, uint64_t call_id);
  CallPtr TakeInflight(uint64_t call_id);
  void StartHeadClock();
  void AttemptFailed(const CallPtr& call, const Status& st, bool paced);
  void Dial();
  void ConnectReady();
  void Connected();
  void OnEvent(uint32_t events);
  void DrainReplies();
  void Flush();
  void ResetConnection(const Status& st);
  void Retire(const Status& st);

  // Completion (any thread for fail-fast refusals, else the loop).
  void Complete(const CallPtr& call, CallResult result);
  void Fail(const CallPtr& call, Status st);
  void Expire(const CallPtr& call);

  void Arm(const CallPtr& call, int64_t when_ns, std::function<void()> fn);
  net::FaultInjector::Decision Consult(bool request, uint64_t bytes);
  int64_t NextBackoffNs();
};

// ---- ChannelLoop ------------------------------------------------------------

ChannelLoop::ChannelLoop() {
  timer_fd_.Reset(
      ::timerfd_create(CLOCK_MONOTONIC, TFD_NONBLOCK | TFD_CLOEXEC));
  if (timer_fd_.valid()) poller_.Add(timer_fd_.get());
  running_.store(true);
  thread_ = std::thread([this] { Run(); });
}

ChannelLoop::~ChannelLoop() { Stop(); }

void ChannelLoop::Stop() {
  {
    MutexLock lock(post_mutex_);
    if (stopped_) return;
    stopped_ = true;
  }
  running_.store(false);
  poller_.Wakeup();
  if (thread_.joinable()) thread_.join();
  // The loop state now belongs to this thread. Tasks posted before the
  // stop run and find the loop stopped; then every pending call fails.
  thread_id_.store(std::this_thread::get_id());
  std::vector<std::function<void()>> tasks;
  {
    MutexLock lock(post_mutex_);
    tasks.swap(posted_);
  }
  for (auto& task : tasks) task();
  auto links = std::move(links_);
  links_.clear();
  for (auto& [raw, link] : links) {
    (void)raw;
    link->Retire(Status::Cancelled("rpc channel loop stopped"));
  }
  // Calls a timer still holds fail through Call's destructor; their
  // continuations may add timers, so drain until none are left.
  while (!timers_.empty()) {
    auto timers = std::move(timers_);
    timers_.clear();
    timers.clear();
  }
  fds_.clear();
  dirty_.clear();
}

bool ChannelLoop::Post(std::function<void()> task) {
  bool wake = false;
  {
    MutexLock lock(post_mutex_);
    if (stopped_) return false;
    wake = posted_.empty();
    posted_.push_back(std::move(task));
  }
  // A non-empty queue already has a wakeup pending.
  if (wake) poller_.Wakeup();
  return true;
}

ChannelLoop::TimerId ChannelLoop::AddTimer(int64_t when_ns,
                                           std::function<void()> fn) {
  TimerId id{when_ns, next_timer_seq_++};
  timers_.emplace(std::make_pair(id.when_ns, id.seq), std::move(fn));
  return id;
}

void ChannelLoop::CancelTimer(TimerId& timer) {
  if (timer.seq == 0) return;
  timers_.erase(std::make_pair(timer.when_ns, timer.seq));
  timer = TimerId{};
}

void ChannelLoop::Run() {
  thread_id_.store(std::this_thread::get_id());
  while (running_.load()) {
    RunPosted();
    RunDueTimers();
    FlushDirty();
    ArmTimerFd();
    auto ready = poller_.Wait(/*timeout_ms=*/200, [this](int fd,
                                                          uint32_t events) {
      if (fd == timer_fd_.get()) {
        // Consume the tick (the timerfd is disarmed now); due timers run
        // after the wait, and the next pass re-arms it.
        uint64_t expirations = 0;
        if (::read(fd, &expirations, sizeof(expirations)) < 0) return;
        timer_fd_armed_ns_ = 0;
        return;
      }
      auto it = fds_.find(fd);
      if (it == fds_.end()) return;
      std::shared_ptr<Link> link = it->second;
      link->OnEvent(events);
    });
    if (!ready.ok()) {
      MDOS_LOG_ERROR << "rpc channel loop poll failed: " << ready.status();
      break;
    }
    RunDueTimers();
    FlushDirty();
  }
}

void ChannelLoop::RunPosted() {
  std::vector<std::function<void()>> tasks;
  {
    MutexLock lock(post_mutex_);
    tasks.swap(posted_);
  }
  for (auto& task : tasks) task();
}

void ChannelLoop::RunDueTimers() {
  const int64_t now = MonotonicNanos();
  while (!timers_.empty() && timers_.begin()->first.first <= now) {
    std::function<void()> fn = std::move(timers_.begin()->second);
    timers_.erase(timers_.begin());
    fn();
  }
}

void ChannelLoop::FlushDirty() {
  if (dirty_.empty()) return;
  std::vector<std::shared_ptr<Link>> links;
  links.swap(dirty_);
  for (auto& link : links) link->Flush();
}

void ChannelLoop::ArmTimerFd() {
  if (!timer_fd_.valid()) return;
  const int64_t when = timers_.empty() ? 0 : timers_.begin()->first.first;
  if (when == timer_fd_armed_ns_) return;
  itimerspec spec{};
  if (when > 0) {
    // Absolute CLOCK_MONOTONIC, the clock MonotonicNanos reads; a time
    // already past fires at once. (0 would disarm, so clamp to 1 ns.)
    const int64_t at = std::max<int64_t>(when, 1);
    spec.it_value.tv_sec = static_cast<time_t>(at / 1'000'000'000);
    spec.it_value.tv_nsec = static_cast<long>(at % 1'000'000'000);
  }
  ::timerfd_settime(timer_fd_.get(), TFD_TIMER_ABSTIME, &spec, nullptr);
  timer_fd_armed_ns_ = when;
}

void ChannelLoop::Watch(int fd, std::shared_ptr<Link> link) {
  poller_.Add(fd);
  fds_[fd] = std::move(link);
}

void ChannelLoop::Unwatch(int fd) {
  poller_.Remove(fd);
  fds_.erase(fd);
}

void ChannelLoop::MarkDirty(const std::shared_ptr<Link>& link) {
  if (link->dirty) return;
  link->dirty = true;
  dirty_.push_back(link);
}

// ---- Link: completion -------------------------------------------------------

void ChannelLoop::Link::Complete(const CallPtr& call, CallResult result) {
  if (call->done) return;
  call->done = true;
  if (call->timer.seq != 0) loop->CancelTimer(call->timer);
  call->promise.Set(std::move(result));
}

void ChannelLoop::Link::Fail(const CallPtr& call, Status st) {
  if (call->done) return;
  {
    MutexLock lock(stats_mutex);
    ++stats.failures;
  }
  Complete(call, std::move(st));
}

void ChannelLoop::Link::Expire(const CallPtr& call) {
  if (call->done) return;
  {
    MutexLock lock(stats_mutex);
    ++stats.failures;
    ++stats.deadline_exceeded;
  }
  std::string detail =
      call->last.ok() ? "no attempt completed" : call->last.ToString();
  Complete(call, Status::DeadlineExceeded("rpc call '" + call->method +
                                          "' deadline exceeded (last: " +
                                          detail + ")"));
}

void ChannelLoop::Link::Arm(const CallPtr& call, int64_t when_ns,
                            std::function<void()> fn) {
  loop->CancelTimer(call->timer);
  call->timer = loop->AddTimer(when_ns, std::move(fn));
}

net::FaultInjector::Decision ChannelLoop::Link::Consult(bool request,
                                                        uint64_t bytes) {
  net::FaultInjector* faults = nullptr;
  uint32_t self = 0;
  uint32_t peer = 0;
  {
    MutexLock lock(fault_mutex);
    faults = injector;
    self = self_node;
    peer = peer_node;
  }
  if (faults == nullptr) return {};
  // Requests travel self -> peer, responses peer -> self.
  auto decision = request ? faults->Consult(self, peer, bytes)
                          : faults->Consult(peer, self, bytes);
  if (decision.drop || decision.delay_ns > 0) {
    MutexLock lock(stats_mutex);
    ++stats.injected_faults;
  }
  return decision;
}

int64_t ChannelLoop::Link::NextBackoffNs() {
  // Streak is >= 1 here (a dial just failed); the first window must be
  // the configured minimum, doubling from there.
  uint64_t shift = std::min<uint32_t>(dial_failure_streak - 1, 20);
  uint64_t ms = static_cast<uint64_t>(options.redial_backoff_min_ms)
                << shift;
  ms = std::min<uint64_t>(std::max<uint64_t>(ms, 1),
                          options.redial_backoff_max_ms);
  // ±25 % jitter (SplitMix64 step over the per-channel seed).
  SplitMix64 rng(backoff_seed);
  backoff_seed = rng.Next();
  double factor = 0.75 + 0.5 * rng.NextDouble();
  return static_cast<int64_t>(static_cast<double>(ms) * factor * 1e6);
}

// ---- Link: call path --------------------------------------------------------

void ChannelLoop::Link::Adopt(net::UniqueFd socket) {
  if (state == State::kRetired) return;  // retired before it was adopted
  fd = std::move(socket);
  state = State::kUp;
  loop->Watch(fd.get(), shared_from_this());
  loop->links_[this] = shared_from_this();
}

void ChannelLoop::Link::Issue(const CallPtr& call) {
  if (call->done) return;
  if (!loop->running_.load()) {
    Fail(call, Status::Cancelled("rpc channel loop stopped"));
    return;
  }
  if (state == State::kRetired) {
    Fail(call, Status::NotConnected("channel closed"));
    return;
  }
  if (call->deadline_mode() && call->deadline.expired()) {
    Expire(call);
    return;
  }
  if (state == State::kUp) {
    Attempt(call);
    return;
  }
  if (state == State::kConnecting) {
    waiting.push_back(call);
    return;
  }
  if (lost) {
    // The peer closed the connection while it was idle. This call
    // reports the loss, as a send on the dead socket would have, so the
    // caller's failure accounting sees it; the next call redials.
    lost = false;
    AttemptFailed(call,
                  Status::NotConnected("rpc connection to " + Endpoint() +
                                       " was closed"),
                  false);
    return;
  }
  // Disconnected: a previous failure (or a peer restart) closed the
  // socket. Heal it here instead of failing forever.
  const int64_t now = MonotonicNanos();
  if (now < next_redial_ns) {
    if (call->deadline_mode()) {
      // Inside the backoff window a deadline call waits the window out —
      // but never past its own budget.
      Arm(call, std::min(next_redial_ns, call->deadline.when_ns()),
          [self = shared_from_this(), call] { self->Issue(call); });
      return;
    }
    {
      MutexLock lock(stats_mutex);
      ++stats.fast_failures;
    }
    Fail(call, Status::NotConnected("channel to " + Endpoint() +
                                    " disconnected (redial backing off)"));
    return;
  }
  waiting.push_back(call);
  dial_attempts_left = std::max<uint32_t>(options.redial_attempts, 1);
  Dial();
}

void ChannelLoop::Link::Dial() {
  while (dial_attempts_left > 0) {
    --dial_attempts_left;
    bool in_progress = false;
    auto dialed = net::TcpConnectStart(host, port, &in_progress);
    if (dialed.ok()) {
      fd = std::move(dialed).value();
      loop->Watch(fd.get(), shared_from_this());
      if (!in_progress) {
        Connected();
        return;
      }
      // Writability reports the handshake's outcome.
      state = State::kConnecting;
      loop->poller_.SetWriteInterest(fd.get(), true);
      write_armed = true;
      return;
    }
    {
      MutexLock lock(stats_mutex);
      ++stats.redial_failures;
    }
    ++dial_failure_streak;
    last_dial_error = dialed.status();
  }
  // Every attempt failed: open the backoff window and hand the waiters
  // the failure (deadline calls wait the window out and retry).
  next_redial_ns = MonotonicNanos() + NextBackoffNs();
  Status failed = Status::NotConnected("redial of " + Endpoint() +
                                       " failed: " +
                                       last_dial_error.ToString());
  auto calls = std::move(waiting);
  waiting.clear();
  for (const CallPtr& call : calls) AttemptFailed(call, failed, false);
}

void ChannelLoop::Link::ConnectReady() {
  Status outcome = net::FinishConnect(fd.get());
  if (outcome.ok()) {
    Connected();
    return;
  }
  loop->Unwatch(fd.get());
  fd.Reset();
  write_armed = false;
  state = State::kDown;
  {
    MutexLock lock(stats_mutex);
    ++stats.redial_failures;
  }
  ++dial_failure_streak;
  last_dial_error = std::move(outcome);
  Dial();  // the next attempt, or give up
}

void ChannelLoop::Link::Connected() {
  state = State::kUp;
  connected.store(true);
  if (write_armed) {
    loop->poller_.SetWriteInterest(fd.get(), false);
    write_armed = false;
  }
  dial_failure_streak = 0;
  next_redial_ns = 0;
  {
    MutexLock lock(stats_mutex);
    ++stats.reconnects;
  }
  auto calls = std::move(waiting);
  waiting.clear();
  for (const CallPtr& call : calls) Issue(call);
}

void ChannelLoop::Link::Attempt(const CallPtr& call) {
  const int64_t now = MonotonicNanos();
  call->attempt_start_ns = now;
  uint64_t stamp_ms = call->timeout_ms;
  call->attempt_deadline_ns =
      call->timeout_ms > 0
          ? now + static_cast<int64_t>(call->timeout_ms) * 1'000'000
          : 0;
  if (call->deadline_mode()) {
    // The remaining budget rides the envelope so the server can shed
    // work whose deadline passes while it queues.
    call->attempt_deadline_ns = call->deadline.when_ns();
    stamp_ms = static_cast<uint64_t>(call->deadline.remaining_ms_ceil());
  }
  call->call_id = next_call_id++;
  wire::Writer writer;
  writer.Adopt(tx.AcquireBuffer());
  EncodeRequest(writer, call->call_id, call->method, stamp_ms,
                call->payload);
  std::vector<uint8_t> frame = writer.TakeBuffer();
  // Only a deadline call can need the payload again (a retry).
  if (!call->deadline_mode()) call->payload = {};

  // Fault injection sits under the transport, on the self -> peer
  // direction. A dropped message looks exactly like the network ate it:
  // the injected delay still elapses (slow-then-dead, not instantly
  // dead), then the attempt reports a timeout. A delay that reaches past
  // the attempt's bound reports the timeout at the bound — the request
  // must NOT be sent late as if it had been in time.
  const int64_t rtt_half = options.simulated_rtt_ns / 2;
  auto decision = Consult(/*request=*/true, frame.size());
  int64_t delay = decision.delay_ns;
  const bool late = call->attempt_deadline_ns > 0 &&
                    now + delay >= call->attempt_deadline_ns;
  if (decision.drop || late) {
    if (late) delay = call->attempt_deadline_ns - now;
    Status lost = Status::Timeout(
        "rpc call '" + call->method + "' timed out " +
        (decision.drop ? "(request dropped)" : "(injected latency)"));
    const bool paced = decision.drop;
    if (delay <= 0) {
      AttemptFailed(call, lost, paced);
      return;
    }
    Arm(call, now + delay,
        [self = shared_from_this(), call, lost, paced] {
          self->AttemptFailed(call, lost, paced);
        });
    return;
  }
  delay += rtt_half;  // half the modelled LAN round trip before sending
  if (delay > 0) {
    Arm(call, now + delay,
        [self = shared_from_this(), call, frame = std::move(frame)]() mutable {
          self->Transmit(call, std::move(frame));
        });
    return;
  }
  Transmit(call, std::move(frame));
}

void ChannelLoop::Link::Transmit(const CallPtr& call,
                                 std::vector<uint8_t> frame) {
  if (call->done) return;
  if (state == State::kRetired) {
    Fail(call, Status::NotConnected("channel closed"));
    return;
  }
  if (state != State::kUp) {
    // The connection failed while the request was held back.
    AttemptFailed(call,
                  Status::IoError("rpc call '" + call->method +
                                  "': connection lost before send"),
                  false);
    return;
  }
  Status queued = tx.Append(kRequestFrame, std::move(frame));
  if (!queued.ok()) {
    Fail(call, std::move(queued));
    return;
  }
  inflight.push_back(call);
  loop->MarkDirty(shared_from_this());
  if (call->deadline_mode()) {
    Arm(call, call->attempt_deadline_ns,
        [self = shared_from_this(), call, id = call->call_id] {
          self->ReplyTimedOut(call, id);
        });
    return;
  }
  StartHeadClock();
}

ChannelLoop::Link::CallPtr ChannelLoop::Link::TakeInflight(uint64_t call_id) {
  // Replies come back in send order, so the match is nearly always the
  // front.
  for (auto it = inflight.begin(); it != inflight.end(); ++it) {
    if ((*it)->call_id != call_id) continue;
    CallPtr call = std::move(*it);
    inflight.erase(it);
    return call;
  }
  return nullptr;
}

void ChannelLoop::Link::StartHeadClock() {
  // A transport bound covers a call's own exchange, not the time it
  // waits behind earlier requests on the connection (a heartbeat queued
  // behind a large replica push must not time out and reset it): its
  // clock starts once every call sent before it has been answered or
  // given up.
  if (inflight.empty()) return;
  const CallPtr& head = inflight.front();
  if (head->deadline_mode() || head->timeout_ms == 0 ||
      head->timer.seq != 0) {
    return;
  }
  head->attempt_deadline_ns =
      MonotonicNanos() + static_cast<int64_t>(head->timeout_ms) * 1'000'000;
  Arm(head, head->attempt_deadline_ns,
      [self = shared_from_this(), call = head, id = head->call_id] {
        self->ReplyTimedOut(call, id);
      });
}

void ChannelLoop::Link::ReplyTimedOut(const CallPtr& call, uint64_t call_id) {
  if (call->done || call->call_id != call_id) return;
  TakeInflight(call_id);
  Status timed_out =
      Status::Timeout("rpc call '" + call->method + "' timed out");
  if (call->deadline_mode()) {
    // The caller's budget ran out: only this call gives up. Its reply,
    // if it ever comes, matches no pending call and is discarded.
    call->last = std::move(timed_out);
    Expire(call);
    StartHeadClock();
    return;
  }
  // A transport bound expired: the peer stopped answering, so the
  // connection is presumed broken and the next call redials.
  ResetConnection(Status::IoError("rpc connection to " + Endpoint() +
                                  " reset: call '" + call->method +
                                  "' timed out"));
  Fail(call, std::move(timed_out));
}

void ChannelLoop::Link::OnResponse(RpcResponse response, size_t frame_bytes) {
  CallPtr call = TakeInflight(response.call_id);
  if (call == nullptr) return;  // its caller already gave up
  loop->CancelTimer(call->timer);
  StartHeadClock();

  // The response traverses peer -> self: a one-way fault in that
  // direction can delay or eat it even though the request got through.
  // The reply is already off the socket, so the connection stays clean.
  const int64_t now = MonotonicNanos();
  auto decision = Consult(/*request=*/false, frame_bytes);
  int64_t delay = decision.delay_ns;
  const bool late = call->attempt_deadline_ns > 0 &&
                    now + delay >= call->attempt_deadline_ns;
  if (decision.drop || late) {
    if (late) delay = std::max<int64_t>(call->attempt_deadline_ns - now, 0);
    Status lost = Status::Timeout(
        "rpc call '" + call->method + "' timed out " +
        (decision.drop ? "(response dropped)" : "(injected latency)"));
    const bool paced = decision.drop;
    if (delay <= 0) {
      AttemptFailed(call, lost, paced);
      return;
    }
    Arm(call, now + delay,
        [self = shared_from_this(), call, lost, paced] {
          self->AttemptFailed(call, lost, paced);
        });
    return;
  }
  delay += options.simulated_rtt_ns / 2;
  if (delay > 0) {
    auto held = std::make_shared<RpcResponse>(std::move(response));
    Arm(call, now + delay, [self = shared_from_this(), call, held] {
      self->Deliver(call, std::move(*held));
    });
    return;
  }
  Deliver(call, std::move(response));
}

void ChannelLoop::Link::Deliver(const CallPtr& call, RpcResponse response) {
  if (call->done) return;
  {
    MutexLock lock(stats_mutex);
    ++stats.calls;
    stats.total_call_ns += MonotonicNanos() - call->attempt_start_ns;
  }
  if (response.code != StatusCode::kOk) {
    Complete(call, Status(response.code, std::move(response.error)));
    return;
  }
  Complete(call, std::move(response.payload));
}

void ChannelLoop::Link::AttemptFailed(const CallPtr& call, const Status& st,
                                      bool paced) {
  if (call->done) return;
  if (!call->deadline_mode() || !Retriable(st)) {
    Fail(call, st);
    return;
  }
  call->last = st;
  if (call->deadline.expired()) {
    Expire(call);
    return;
  }
  if (paced) {
    // A dropped attempt is retried after the redial backoff floor, so a
    // partitioned link cannot spin the loop for the whole budget.
    const int64_t pace_ns =
        std::max<int64_t>(options.redial_backoff_min_ms, 1) * 1'000'000;
    const int64_t at = std::min(call->attempt_start_ns + pace_ns,
                                call->deadline.when_ns());
    if (at > MonotonicNanos()) {
      Arm(call, at, [self = shared_from_this(), call] { self->Issue(call); });
      return;
    }
  }
  Issue(call);
}

// ---- Link: socket -----------------------------------------------------------

void ChannelLoop::Link::OnEvent(uint32_t events) {
  if (state == State::kConnecting) {
    ConnectReady();
    return;
  }
  if (state != State::kUp) return;
  if (events & net::kPollerWritable) Flush();
  if (state == State::kUp && (events & net::kPollerReadable)) DrainReplies();
}

void ChannelLoop::Link::DrainReplies() {
  // Bounded chunks, like RpcServer: each chunk's complete responses are
  // decoded, then dispatched — continuations run inside OnResponse and
  // must not see a half-consumed buffer — before reading on.
  auto self = shared_from_this();  // continuations may drop other refs
  net::ReadState read = net::ReadState::kMore;
  Status parse = Status::OK();
  while (read == net::ReadState::kMore && parse.ok() &&
         state == State::kUp) {
    read = net::ReadAvailable(fd.get(), &inbuf, net::kReadChunkBytes);
    std::vector<std::pair<RpcResponse, size_t>> responses;
    size_t offset = 0;
    while (offset < inbuf.size()) {
      net::FrameView view;
      size_t consumed = 0;
      parse = net::DecodeFrameView(inbuf.data() + offset,
                                   inbuf.size() - offset, &view, &consumed);
      if (!parse.ok() || consumed == 0) break;
      if (view.type != kResponseFrame) {
        parse = Status::ProtocolError("unexpected frame type");
        break;
      }
      wire::Reader reader(view.payload, view.size);
      auto response = wire::Decode<RpcResponse>(reader);
      if (!response.ok()) {
        parse = response.status();
        break;
      }
      offset += consumed;
      responses.emplace_back(std::move(response).value(), view.size);
    }
    inbuf.erase(inbuf.begin(),
                inbuf.begin() + static_cast<ptrdiff_t>(offset));
    for (auto& [response, bytes] : responses) {
      OnResponse(std::move(response), bytes);
    }
  }
  if (!parse.ok()) {
    ResetConnection(parse);
  } else if (read == net::ReadState::kClosed) {
    ResetConnection(Status::NotConnected("rpc connection to " + Endpoint() +
                                         " closed"));
  }
}

void ChannelLoop::Link::Flush() {
  dirty = false;
  if (state != State::kUp) return;
  auto flushed = tx.Flush(fd.get());
  if (!flushed.ok()) {
    ResetConnection(flushed.status());
    return;
  }
  const bool blocked = *flushed == net::TxQueue::FlushState::kBlocked;
  if (blocked != write_armed) {
    loop->poller_.SetWriteInterest(fd.get(), blocked);
    write_armed = blocked;
  }
}

void ChannelLoop::Link::ResetConnection(const Status& st) {
  if (state != State::kUp) return;
  loop->Unwatch(fd.get());
  fd.Reset();
  state = State::kDown;
  connected.store(false);
  write_armed = false;
  inbuf.clear();
  tx = net::TxQueue();
  // Every call on the wire lost its connection: deadline calls retry
  // within their budgets, the rest fail.
  auto calls = std::move(inflight);
  inflight.clear();
  lost = calls.empty();
  for (const CallPtr& call : calls) {
    loop->CancelTimer(call->timer);
    AttemptFailed(call, st, false);
  }
}

void ChannelLoop::Link::Retire(const Status& st) {
  if (state == State::kRetired) return;
  if (fd.valid()) {
    loop->Unwatch(fd.get());
    fd.Reset();
  }
  state = State::kRetired;
  connected.store(false);
  loop->links_.erase(this);
  auto sent = std::move(inflight);
  inflight.clear();
  auto queued = std::move(waiting);
  waiting.clear();
  for (const CallPtr& call : sent) Fail(call, st);
  for (const CallPtr& call : queued) Fail(call, st);
}

// ---- RpcChannel -------------------------------------------------------------

Result<std::shared_ptr<RpcChannel>> RpcChannel::Connect(
    const std::string& host, uint16_t port, ChannelOptions options,
    std::shared_ptr<ChannelLoop> loop) {
  MDOS_ASSIGN_OR_RETURN(net::UniqueFd fd, net::TcpConnect(host, port));
  MDOS_RETURN_IF_ERROR(net::SetNonBlocking(fd.get()));
  if (loop == nullptr) loop = std::make_shared<ChannelLoop>();
  auto link =
      std::make_shared<ChannelLoop::Link>(loop.get(), host, port, options);
  // Decorrelate the backoff jitter across channels dialing one peer.
  link->backoff_seed ^= (static_cast<uint64_t>(port) << 32) ^
                        reinterpret_cast<uintptr_t>(link.get());
  link->connected.store(true);
  if (loop->OnLoopThread()) {
    link->Adopt(std::move(fd));
  } else {
    const int raw_fd = fd.Release();
    if (!loop->Post([link, raw_fd] { link->Adopt(net::UniqueFd(raw_fd)); })) {
      ::close(raw_fd);
      return Status::Cancelled("rpc channel loop stopped");
    }
  }
  const int64_t rtt_ns = options.simulated_rtt_ns;
  return std::shared_ptr<RpcChannel>(
      new RpcChannel(std::move(loop), std::move(link), rtt_ns));
}

RpcChannel::~RpcChannel() { Disconnect(); }

bool RpcChannel::connected() const { return link_->connected.load(); }

void RpcChannel::Disconnect() {
  if (link_->retired.exchange(true)) return;
  link_->connected.store(false);
  // A stopped loop already closed every link.
  loop_->Post([link = link_] {
    link->Retire(Status::NotConnected("channel closed"));
  });
}

Future<CallResult> RpcChannel::CallAsync(const std::string& method,
                                         std::vector<uint8_t> payload,
                                         uint64_t timeout_ms) {
  return Submit(method, std::move(payload), timeout_ms, Deadline::Infinite());
}

Future<CallResult> RpcChannel::CallAsync(const std::string& method,
                                         std::vector<uint8_t> payload,
                                         Deadline deadline) {
  return Submit(method, std::move(payload), 0, deadline);
}

Future<CallResult> RpcChannel::Submit(const std::string& method,
                                      std::vector<uint8_t> payload,
                                      uint64_t timeout_ms, Deadline deadline) {
  auto call = std::make_shared<ChannelLoop::Call>();
  call->method = method;
  call->payload = std::move(payload);
  call->timeout_ms = timeout_ms;
  call->deadline = deadline;
  Future<CallResult> future = call->promise.GetFuture();
  ChannelLoop::Link& link = *link_;
  if (link.retired.load()) {
    link.Fail(call, Status::NotConnected("channel closed"));
    return future;
  }
  // Zero/past deadlines fail fast: no dial, no send, no loop hop.
  if (deadline.expired()) {
    {
      MutexLock lock(link.stats_mutex);
      ++link.stats.failures;
      ++link.stats.deadline_exceeded;
    }
    link.Complete(call, Status::DeadlineExceeded(
                            "rpc call '" + method +
                            "': deadline already expired"));
    return future;
  }
  if (loop_->OnLoopThread()) {
    link.Issue(call);
    return future;
  }
  if (!loop_->Post([link = link_, call] { link->Issue(call); })) {
    link.Fail(call, Status::Cancelled("rpc channel loop stopped"));
  }
  return future;
}

void RpcChannel::SetFaultInjector(net::FaultInjector* injector,
                                  uint32_t self_node, uint32_t peer_node) {
  MutexLock lock(link_->fault_mutex);
  link_->injector = injector;
  link_->self_node = self_node;
  link_->peer_node = peer_node;
}

ChannelStats RpcChannel::stats() const {
  MutexLock lock(link_->stats_mutex);
  return link_->stats;
}

}  // namespace mdos::rpc
