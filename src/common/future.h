// Future / Promise — lightweight one-shot completion primitives for the
// pipelined client API.
//
// A Promise is fulfilled exactly once (typically by a client's
// reply-dispatch thread); any number of Future copies observe the value.
// The shared state is reference-counted, so futures stay valid — and
// resolvable — after the object that produced them is destroyed (a
// tearing-down client fails its outstanding promises instead of leaving
// dangling waiters).
//
// Unlike std::future: copyable, supports WaitFor without exceptions, and
// offers WaitAll/WaitAny combinators over batches — the shapes pipelined
// Plasma workloads need. No executor, no continuations-on-threads: a
// callback registered via OnReady or Then runs inline on the fulfilling
// thread (or on the registering thread when the value is already there)
// and must be cheap. Never fulfil a promise while holding a lock that a
// continuation may take.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <type_traits>
#include <utility>
#include <vector>

namespace mdos {

namespace detail {

template <typename T>
struct FutureState {
  std::mutex mutex;
  std::condition_variable cv;
  std::optional<T> value;
  // Fired inline on Set; keyed so waiters can deregister (WaitAny must
  // not leak a callback per call into futures that never resolve).
  uint64_t next_callback_id = 1;
  std::map<uint64_t, std::function<void()>> callbacks;
};

}  // namespace detail

template <typename T>
class Promise;

template <typename T>
class Future {
 public:
  Future() = default;

  bool valid() const { return state_ != nullptr; }

  [[nodiscard]] bool Ready() const {
    std::lock_guard<std::mutex> lock(state_->mutex);
    return state_->value.has_value();
  }

  // Blocks until fulfilled; returns a reference into the shared state.
  T& Wait() {
    std::unique_lock<std::mutex> lock(state_->mutex);
    state_->cv.wait(lock, [&] { return state_->value.has_value(); });
    return *state_->value;
  }

  // Bounded wait; false on timeout.
  bool WaitFor(uint64_t timeout_ms) {
    std::unique_lock<std::mutex> lock(state_->mutex);
    return state_->cv.wait_for(lock, std::chrono::milliseconds(timeout_ms),
                               [&] { return state_->value.has_value(); });
  }

  // Blocks until fulfilled and moves the value out (the common pattern of
  // the blocking wrappers). Call at most once per future chain.
  T Take() {
    Wait();
    std::lock_guard<std::mutex> lock(state_->mutex);
    T out = std::move(*state_->value);
    return out;
  }

  // Runs `fn` when the value arrives (inline on the fulfilling thread),
  // or immediately when already fulfilled. `fn` must be cheap and must
  // not wait on other futures. Returns a token for RemoveCallback, 0
  // when `fn` ran immediately.
  uint64_t OnReady(std::function<void()> fn) {
    {
      std::lock_guard<std::mutex> lock(state_->mutex);
      if (!state_->value.has_value()) {
        uint64_t token = state_->next_callback_id++;
        state_->callbacks.emplace(token, std::move(fn));
        return token;
      }
    }
    fn();
    return 0;
  }

  // Deregisters a pending OnReady callback; no-op for token 0 or after
  // the callback already fired.
  void RemoveCallback(uint64_t token) {
    if (token == 0) return;
    std::lock_guard<std::mutex> lock(state_->mutex);
    state_->callbacks.erase(token);
  }

  // Continuation: runs `fn(T&)` once the value arrives, with OnReady's
  // threading. When `fn` returns a value, Then returns a future of it;
  // when it returns void, Then returns nothing. `fn` may move from its
  // argument: a future consumed through Then has that one consumer.
  template <typename Fn>
  auto Then(Fn fn) {
    using U = std::invoke_result_t<Fn&, T&>;
    if constexpr (std::is_void_v<U>) {
      OnReady([state = state_, fn = std::move(fn)]() mutable {
        fn(*state->value);
      });
    } else {
      Promise<U> next;
      Future<U> out = next.GetFuture();
      OnReady([state = state_, next, fn = std::move(fn)]() mutable {
        next.Set(fn(*state->value));
      });
      return out;
    }
  }

 private:
  template <typename U>
  friend class Promise;

  explicit Future(std::shared_ptr<detail::FutureState<T>> state)
      : state_(std::move(state)) {}

  std::shared_ptr<detail::FutureState<T>> state_;
};

template <typename T>
class Promise {
 public:
  Promise() : state_(std::make_shared<detail::FutureState<T>>()) {}

  Future<T> GetFuture() const { return Future<T>(state_); }

  // Fulfills the promise. Later calls are ignored (first writer wins), so
  // a race between a reply and teardown failure is benign.
  void Set(T value) {
    std::map<uint64_t, std::function<void()>> callbacks;
    {
      std::lock_guard<std::mutex> lock(state_->mutex);
      if (state_->value.has_value()) return;
      state_->value.emplace(std::move(value));
      callbacks.swap(state_->callbacks);
    }
    state_->cv.notify_all();
    for (auto& [token, callback] : callbacks) {
      (void)token;
      callback();
    }
  }

 private:
  std::shared_ptr<detail::FutureState<T>> state_;
};

// A future that is already fulfilled with `value`.
template <typename T>
Future<T> MakeReadyFuture(T value) {
  Promise<T> promise;
  promise.Set(std::move(value));
  return promise.GetFuture();
}

// Blocks until every future in `futures` is fulfilled.
template <typename T>
void WaitAll(std::vector<Future<T>>& futures) {
  for (auto& future : futures) future.Wait();
}

// Variadic form for mixed value types.
template <typename... Ts>
void WaitAll(Future<Ts>&... futures) {
  (futures.Wait(), ...);
}

// Blocks until at least one future is fulfilled; returns the index of a
// ready future (the lowest when several already are). An empty vector
// returns futures.size() (i.e. 0) so the out-of-range result is
// detectable rather than aliasing a valid index.
template <typename T>
size_t WaitAny(std::vector<Future<T>>& futures) {
  if (futures.empty()) return futures.size();
  struct Signal {
    std::mutex mutex;
    std::condition_variable cv;
    bool fired = false;
  };
  auto signal = std::make_shared<Signal>();
  // Register one wake-up per future; every registration is removed again
  // before returning so repeated WaitAny calls don't accumulate
  // callbacks in long-lived futures.
  std::vector<std::pair<size_t, uint64_t>> tokens;
  tokens.reserve(futures.size());
  for (size_t i = 0; i < futures.size(); ++i) {
    uint64_t token = futures[i].OnReady([signal] {
      std::lock_guard<std::mutex> lock(signal->mutex);
      signal->fired = true;
      signal->cv.notify_all();
    });
    if (token != 0) tokens.emplace_back(i, token);
  }
  size_t winner = futures.size();
  for (;;) {
    for (size_t i = 0; i < futures.size() && winner == futures.size();
         ++i) {
      if (futures[i].Ready()) winner = i;
    }
    if (winner != futures.size()) break;
    std::unique_lock<std::mutex> lock(signal->mutex);
    signal->cv.wait(lock, [&] { return signal->fired; });
    signal->fired = false;
  }
  for (const auto& [index, token] : tokens) {
    futures[index].RemoveCallback(token);
  }
  return winner;
}

}  // namespace mdos
