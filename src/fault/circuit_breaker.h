// CircuitBreaker: per-device fail-fast guard in front of the retry
// path. Retry-with-backoff is the right answer to an occasional
// transient error, but when a device is outright down every retried
// read burns its full backoff schedule before failing. The breaker
// watches a sliding window of outcomes and, past an error-rate
// threshold, "trips" open: reads fail immediately with kUnavailable
// (no device touch, no backoff). After a cooldown it goes half-open and
// lets a few probe reads through; enough consecutive successes close it
// again, any failure re-opens it.
//
//   closed --(error rate >= threshold over window)--> open
//   open   --(cooldown elapsed)-------------------> half-open
//   half-open --(probe failure)-------------------> open
//   half-open --(N consecutive probe successes)---> closed
//
// Half-open admits ONE probe at a time: the caller that wins
// AllowRequest owns the probe until it records an outcome, and every
// concurrent caller fails fast (counted as a reject). Without that
// gate, a burst of callers arriving right after the cooldown would all
// hammer a device that is still likely down — the probe's whole point
// is to risk exactly one request on it.
//
// Time is injected as a microsecond clock callback so tests drive the
// state machine deterministically; the default reads the steady clock.

#ifndef IRBUF_FAULT_CIRCUIT_BREAKER_H_
#define IRBUF_FAULT_CIRCUIT_BREAKER_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <vector>

#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace irbuf::fault {

enum class BreakerState : uint8_t { kClosed, kOpen, kHalfOpen };

const char* BreakerStateName(BreakerState state);

struct BreakerOptions {
  /// Outcomes tracked in the sliding window.
  uint32_t window = 16;
  /// Error fraction over the window that trips the breaker.
  double trip_error_rate = 0.5;
  /// No tripping before this many outcomes are in the window (a single
  /// early error must not open the circuit).
  uint32_t min_samples = 8;
  /// Microseconds open before probing (half-open) begins.
  uint64_t open_cooldown_us = 5000;
  /// Consecutive half-open successes required to close.
  uint32_t half_open_successes = 2;
};

/// Monotonic microsecond clock; injectable for deterministic tests.
using ClockFn = std::function<uint64_t()>;

class CircuitBreaker {
 public:
  /// `clock` defaults to the process steady clock when null.
  explicit CircuitBreaker(BreakerOptions options, ClockFn clock = nullptr);

  CircuitBreaker(const CircuitBreaker&) = delete;
  CircuitBreaker& operator=(const CircuitBreaker&) = delete;

  /// Gate before touching the device. False = fail fast with
  /// kUnavailable and do not call Record*. Open->half-open promotion
  /// happens here when the cooldown has elapsed; in half-open, exactly
  /// one caller holds the probe slot at a time (the winner MUST call
  /// RecordSuccess or RecordFailure, or probing wedges).
  bool AllowRequest();

  /// Outcome of a request that AllowRequest admitted. "Success" means
  /// the device responded (a clean read); "failure" is any device-level
  /// error, retries exhausted included.
  void RecordSuccess();
  void RecordFailure();

  BreakerState state() const;
  /// Times the breaker transitioned closed/half-open -> open.
  uint64_t trips() const { return trips_.load(std::memory_order_relaxed); }
  /// Requests rejected while open.
  uint64_t rejects() const {
    return rejects_.load(std::memory_order_relaxed);
  }


 private:
  void TransitionTo(BreakerState next, uint64_t now_us)
      IRBUF_REQUIRES(mu_);
  double ErrorRate() const IRBUF_REQUIRES(mu_);

  const BreakerOptions options_;
  const ClockFn clock_;

  mutable Mutex mu_;
  BreakerState state_ IRBUF_GUARDED_BY(mu_) = BreakerState::kClosed;
  /// Ring buffer of the last `window` outcomes (true = failure).
  std::vector<bool> outcomes_ IRBUF_GUARDED_BY(mu_);
  uint32_t next_slot_ IRBUF_GUARDED_BY(mu_) = 0;
  uint32_t samples_ IRBUF_GUARDED_BY(mu_) = 0;
  uint32_t failures_ IRBUF_GUARDED_BY(mu_) = 0;
  uint64_t opened_at_us_ IRBUF_GUARDED_BY(mu_) = 0;
  uint32_t half_open_streak_ IRBUF_GUARDED_BY(mu_) = 0;
  /// Half-open probe slot: set by the AllowRequest winner, cleared by
  /// its Record* (or by leaving half-open).
  bool probe_in_flight_ IRBUF_GUARDED_BY(mu_) = false;
  /// Bumped under mu_, read lock-free: the owners' metric collectors
  /// read them without taking mu_.
  std::atomic<uint64_t> trips_{0};
  std::atomic<uint64_t> rejects_{0};
};

}  // namespace irbuf::fault

#endif  // IRBUF_FAULT_CIRCUIT_BREAKER_H_
