// Monotonic-time helpers and the calibrated spin-wait used by the fabric
// latency model. All durations in the framework are nanoseconds carried in
// int64_t to keep wire encoding trivial.
#pragma once

#include <chrono>
#include <cstdint>
#include <thread>

namespace mdos {

inline int64_t MonotonicNanos() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Busy-waits until `deadline_ns` (monotonic). Short waits spin to keep the
// latency model accurate at sub-microsecond granularity; waits longer than
// ~100 µs first sleep to avoid burning a core in long benchmarks.
inline void SpinUntilNanos(int64_t deadline_ns) {
  constexpr int64_t kSleepThresholdNs = 100 * 1000;
  int64_t now = MonotonicNanos();
  if (deadline_ns - now > kSleepThresholdNs) {
    std::this_thread::sleep_for(
        std::chrono::nanoseconds(deadline_ns - now - kSleepThresholdNs));
  }
  while (MonotonicNanos() < deadline_ns) {
    // spin
  }
}

// Convenience: busy-wait for a duration starting now.
inline void SpinForNanos(int64_t duration_ns) {
  SpinUntilNanos(MonotonicNanos() + duration_ns);
}

// Scoped stopwatch for measurements; returns elapsed nanoseconds.
class Stopwatch {
 public:
  Stopwatch() : start_(MonotonicNanos()) {}
  void Reset() { start_ = MonotonicNanos(); }
  int64_t ElapsedNanos() const { return MonotonicNanos() - start_; }
  double ElapsedMillis() const {
    return static_cast<double>(ElapsedNanos()) / 1e6;
  }
  double ElapsedSeconds() const {
    return static_cast<double>(ElapsedNanos()) / 1e9;
  }

 private:
  int64_t start_;
};

}  // namespace mdos
