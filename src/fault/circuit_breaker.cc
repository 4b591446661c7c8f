#include "fault/circuit_breaker.h"

#include "fault/backoff.h"

namespace irbuf::fault {

const char* BreakerStateName(BreakerState state) {
  switch (state) {
    case BreakerState::kClosed:
      return "closed";
    case BreakerState::kOpen:
      return "open";
    case BreakerState::kHalfOpen:
      return "half-open";
  }
  return "unknown";
}

CircuitBreaker::CircuitBreaker(BreakerOptions options, ClockFn clock)
    : options_(options),
      clock_(clock ? std::move(clock) : ClockFn(&MonotonicNowUs)) {
  MutexLock lock(mu_);
  outcomes_.assign(options_.window, false);
}

void CircuitBreaker::TransitionTo(BreakerState next, uint64_t now_us) {
  if (next == BreakerState::kOpen) {
    trips_.fetch_add(1, std::memory_order_relaxed);
    opened_at_us_ = now_us;
  }
  if (next == BreakerState::kHalfOpen || next == BreakerState::kClosed) {
    half_open_streak_ = 0;
  }
  probe_in_flight_ = false;
  if (next == BreakerState::kClosed) {
    // Fresh window: pre-trip history must not immediately re-trip.
    outcomes_.assign(options_.window, false);
    next_slot_ = 0;
    samples_ = 0;
    failures_ = 0;
  }
  state_ = next;
}

double CircuitBreaker::ErrorRate() const {
  return samples_ == 0
             ? 0.0
             : static_cast<double>(failures_) / static_cast<double>(samples_);
}

bool CircuitBreaker::AllowRequest() {
  MutexLock lock(mu_);
  switch (state_) {
    case BreakerState::kClosed:
      return true;
    case BreakerState::kHalfOpen:
      // One probe at a time: losers fail fast instead of piling onto a
      // device that is still likely down.
      if (probe_in_flight_) {
        rejects_.fetch_add(1, std::memory_order_relaxed);
        return false;
      }
      probe_in_flight_ = true;
      return true;
    case BreakerState::kOpen: {
      const uint64_t now = clock_();
      if (now - opened_at_us_ >= options_.open_cooldown_us) {
        TransitionTo(BreakerState::kHalfOpen, now);
        probe_in_flight_ = true;  // The promoting caller is the probe.
        return true;
      }
      rejects_.fetch_add(1, std::memory_order_relaxed);
      return false;
    }
  }
  return true;
}

void CircuitBreaker::RecordSuccess() {
  MutexLock lock(mu_);
  if (state_ == BreakerState::kHalfOpen) {
    probe_in_flight_ = false;  // The probe slot frees for the next caller.
    if (++half_open_streak_ >= options_.half_open_successes) {
      TransitionTo(BreakerState::kClosed, clock_());
    }
    return;
  }
  if (state_ != BreakerState::kClosed) return;
  if (samples_ >= options_.window) {
    if (outcomes_[next_slot_]) --failures_;
  } else {
    ++samples_;
  }
  outcomes_[next_slot_] = false;
  next_slot_ = (next_slot_ + 1) % options_.window;
}

void CircuitBreaker::RecordFailure() {
  MutexLock lock(mu_);
  const uint64_t now = clock_();
  if (state_ == BreakerState::kHalfOpen) {
    TransitionTo(BreakerState::kOpen, now);
    return;
  }
  if (state_ != BreakerState::kClosed) return;
  if (samples_ >= options_.window) {
    if (outcomes_[next_slot_]) --failures_;
  } else {
    ++samples_;
  }
  outcomes_[next_slot_] = true;
  ++failures_;
  next_slot_ = (next_slot_ + 1) % options_.window;
  if (samples_ >= options_.min_samples &&
      ErrorRate() >= options_.trip_error_rate) {
    TransitionTo(BreakerState::kOpen, now);
  }
}

BreakerState CircuitBreaker::state() const {
  MutexLock lock(mu_);
  return state_;
}

}  // namespace irbuf::fault
