// Absolute end-to-end deadlines.
//
// A Deadline is a point on the monotonic clock (common/clock.h) by which
// an operation must complete. Client-facing calls carry one; each peer
// hop stamps the *remaining* budget (in milliseconds) into the RPC
// envelope so downstream servers can shed work whose deadline already
// passed, and retry loops bound their backoff by what is left. A
// default-constructed Deadline is infinite — existing call sites keep
// their "wait forever / per-call timeout" behavior unchanged.
#pragma once

#include <cstdint>

#include "common/clock.h"

namespace mdos {

class Deadline {
 public:
  // Infinite: never expires, remaining budget saturates.
  constexpr Deadline() = default;

  static Deadline Infinite() { return Deadline(); }

  // Expires `ms` milliseconds from now. Non-positive values produce an
  // already-expired deadline (fail-fast semantics), not an infinite one.
  static Deadline AfterMs(int64_t ms) {
    return Deadline(MonotonicNanos() + ms * 1'000'000);
  }

  bool infinite() const { return when_ns_ == kInfinite; }

  bool expired() const {
    return !infinite() && MonotonicNanos() >= when_ns_;
  }

  // Remaining budget in nanoseconds; 0 when expired, INT64_MAX when
  // infinite.
  int64_t remaining_ns() const {
    if (infinite()) return INT64_MAX;
    int64_t left = when_ns_ - MonotonicNanos();
    return left > 0 ? left : 0;
  }

  // Remaining budget as whole milliseconds, rounded up so a 1 ns budget
  // still stamps 1 ms rather than lying that nothing is left; 0 only
  // when truly expired. Saturates at INT32_MAX for the wire varint.
  int64_t remaining_ms_ceil() const {
    if (infinite()) return kInfiniteMs;
    int64_t ns = remaining_ns();
    if (ns == 0) return 0;
    int64_t ms = (ns + 999'999) / 1'000'000;
    return ms < kInfiniteMs ? ms : kInfiniteMs;
  }

  int64_t when_ns() const { return when_ns_; }

  // The ms budget value that means "no deadline" on the wire: header
  // fields default to 0 = unset, so 0 is reserved and real budgets are
  // always >= 1 (see remaining_ms_ceil).
  static constexpr int64_t kInfiniteMs = INT32_MAX;

  // Reconstructs a deadline from a wire budget: 0 or >= kInfiniteMs
  // mean "none carried".
  static Deadline FromBudgetMs(int64_t ms) {
    if (ms <= 0 || ms >= kInfiniteMs) return Infinite();
    return AfterMs(ms);
  }

  // The tighter of two deadlines.
  static Deadline Min(Deadline a, Deadline b) {
    if (a.infinite()) return b;
    if (b.infinite()) return a;
    return a.when_ns_ < b.when_ns_ ? a : b;
  }

 private:
  static constexpr int64_t kInfinite = INT64_MAX;

  constexpr explicit Deadline(int64_t when_ns) : when_ns_(when_ns) {}

  int64_t when_ns_ = kInfinite;
};

}  // namespace mdos
