#include "fault/circuit_breaker.h"

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "fault/backoff.h"
#include "fault/fault_injector.h"
#include "fault/resilient.h"
#include "obs/metrics.h"
#include "serve/concurrent_buffer_pool.h"
#include "storage/simulated_disk.h"

namespace irbuf::fault {
namespace {

BreakerOptions SmallBreaker() {
  BreakerOptions options;
  options.window = 4;
  options.trip_error_rate = 0.5;
  options.min_samples = 4;
  options.open_cooldown_us = 1000;
  options.half_open_successes = 2;
  return options;
}

TEST(CircuitBreakerTest, FullStateMachineCycle) {
  uint64_t now = 0;
  CircuitBreaker breaker(SmallBreaker(), [&now] { return now; });
  EXPECT_EQ(breaker.state(), BreakerState::kClosed);

  // Failures below min_samples must not trip.
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(breaker.AllowRequest());
    breaker.RecordFailure();
  }
  EXPECT_EQ(breaker.state(), BreakerState::kClosed);

  // The fourth failure reaches min_samples at 100% error rate: open.
  ASSERT_TRUE(breaker.AllowRequest());
  breaker.RecordFailure();
  EXPECT_EQ(breaker.state(), BreakerState::kOpen);
  EXPECT_EQ(breaker.trips(), 1u);

  // Open rejects fail fast, without touching the device.
  EXPECT_FALSE(breaker.AllowRequest());
  EXPECT_FALSE(breaker.AllowRequest());
  EXPECT_EQ(breaker.rejects(), 2u);

  // Cooldown elapses: the next request is a half-open probe.
  now += 1000;
  EXPECT_TRUE(breaker.AllowRequest());
  EXPECT_EQ(breaker.state(), BreakerState::kHalfOpen);

  // A probe failure slams it back open (and counts a trip).
  breaker.RecordFailure();
  EXPECT_EQ(breaker.state(), BreakerState::kOpen);
  EXPECT_EQ(breaker.trips(), 2u);

  // Cooldown again, then enough consecutive probe successes: closed.
  now += 1000;
  EXPECT_TRUE(breaker.AllowRequest());
  breaker.RecordSuccess();
  EXPECT_EQ(breaker.state(), BreakerState::kHalfOpen);
  EXPECT_TRUE(breaker.AllowRequest());
  breaker.RecordSuccess();
  EXPECT_EQ(breaker.state(), BreakerState::kClosed);

  // Closing reset the window: one stale failure cannot re-trip.
  breaker.RecordFailure();
  EXPECT_EQ(breaker.state(), BreakerState::kClosed);
}

TEST(CircuitBreakerTest, MixedOutcomesBelowThresholdStayClosed) {
  uint64_t now = 0;
  BreakerOptions options = SmallBreaker();
  options.window = 8;
  options.min_samples = 8;
  options.trip_error_rate = 0.5;
  CircuitBreaker breaker(options, [&now] { return now; });
  // 3 failures out of every 8 = 37.5% error rate: below the 50% trip
  // threshold, even sustained forever.
  for (int round = 0; round < 5; ++round) {
    for (int i = 0; i < 8; ++i) {
      ASSERT_TRUE(breaker.AllowRequest());
      if (i < 3) {
        breaker.RecordFailure();
      } else {
        breaker.RecordSuccess();
      }
      ASSERT_EQ(breaker.state(), BreakerState::kClosed);
    }
  }
  EXPECT_EQ(breaker.trips(), 0u);
}

TEST(CircuitBreakerTest, SlidingWindowForgetsOldFailures) {
  uint64_t now = 0;
  BreakerOptions options = SmallBreaker();
  options.window = 4;
  options.min_samples = 4;
  CircuitBreaker breaker(options, [&now] { return now; });
  // Two early failures, then a run of successes that pushes them out of
  // the window; two *new* failures then see a window of 2/4 = 50%...
  breaker.RecordFailure();
  breaker.RecordFailure();
  for (int i = 0; i < 4; ++i) breaker.RecordSuccess();
  EXPECT_EQ(breaker.state(), BreakerState::kClosed);
  breaker.RecordFailure();
  EXPECT_EQ(breaker.state(), BreakerState::kClosed);  // 1/4 < 50%.
  breaker.RecordFailure();
  EXPECT_EQ(breaker.state(), BreakerState::kOpen);  // 2/4 >= 50%.
}

TEST(CircuitBreakerTest, MetricsTrackTripsAndRejects) {
  obs::MetricsRegistry registry;
  uint64_t now = 0;
  CircuitBreaker breaker(SmallBreaker(), [&now] { return now; });
  // Owners export a breaker's counts the way ShardedEngine does.
  obs::SourceBinding binding =
      registry.BindSource([&breaker](const obs::Emit& emit) {
        emit("t", breaker.trips());
        emit("r", breaker.rejects());
      });
  for (int i = 0; i < 4; ++i) breaker.RecordFailure();
  EXPECT_FALSE(breaker.AllowRequest());
  EXPECT_EQ(registry.CounterValue("t"), breaker.trips());
  EXPECT_EQ(registry.CounterValue("r"), breaker.rejects());
  EXPECT_EQ(registry.CounterValue("t"), 1u);
  EXPECT_EQ(registry.CounterValue("r"), 1u);
}

// ---- Trip and recover, end to end through the retry loop. ----

TEST(CircuitBreakerTest, ResilientReaderTripsFastFailsAndRecovers) {
  uint64_t now = 0;
  ResilienceOptions options;
  options.enabled = true;
  options.sleep_on_backoff = false;
  options.backoff.max_retries = 0;  // Isolate the breaker's behaviour.
  options.breaker = SmallBreaker();
  ResilientReader reader(options, [&now] { return now; });

  bool device_down = true;
  uint64_t device_touches = 0;
  const auto read = [&]() -> Status {
    ++device_touches;
    return device_down ? Status::Unavailable("device down") : Status::OK();
  };

  // Four failing reads trip the breaker.
  for (int i = 0; i < 4; ++i) {
    EXPECT_FALSE(reader.Read(PageId{0, 0}, read).ok());
  }
  ASSERT_NE(reader.breaker(), nullptr);
  EXPECT_EQ(reader.breaker()->state(), BreakerState::kOpen);
  EXPECT_EQ(device_touches, 4u);

  // While open, reads are rejected without touching the device at all.
  ReadOutcome outcome;
  Status rejected = reader.Read(PageId{0, 0}, read, &outcome);
  EXPECT_EQ(rejected.code(), StatusCode::kUnavailable);
  EXPECT_TRUE(outcome.rejected_by_breaker);
  EXPECT_EQ(outcome.attempts, 0u);
  EXPECT_EQ(device_touches, 4u);

  // The device heals; after the cooldown the half-open probes succeed
  // and the breaker closes — full recovery.
  device_down = false;
  now += options.breaker.open_cooldown_us;
  EXPECT_TRUE(reader.Read(PageId{0, 0}, read).ok());
  EXPECT_EQ(reader.breaker()->state(), BreakerState::kHalfOpen);
  EXPECT_TRUE(reader.Read(PageId{0, 0}, read).ok());
  EXPECT_EQ(reader.breaker()->state(), BreakerState::kClosed);
  EXPECT_EQ(device_touches, 6u);
}

TEST(CircuitBreakerTest, ConcurrentPoolBreakerTripsUnderDeviceFailure) {
  storage::SimulatedDisk disk;
  for (uint32_t p = 0; p < 8; ++p) {
    ASSERT_TRUE(disk.AppendPage(0, {{p * 2, 3}, {p * 2 + 1, 1}},
                                100.0 - p).ok());
  }
  FaultSpec spec;
  spec.rules.push_back({FaultKind::kTransientRead, 1.0});
  FaultInjector injector(spec);
  disk.SetFaultInjector(&injector);

  serve::ConcurrentPoolOptions options;
  options.capacity = 4;
  options.resilience.enabled = true;
  options.resilience.sleep_on_backoff = false;
  options.resilience.backoff.max_retries = 1;
  options.resilience.breaker.window = 4;
  options.resilience.breaker.min_samples = 4;
  options.resilience.breaker.trip_error_rate = 0.5;
  options.resilience.breaker.open_cooldown_us = 2000;
  serve::ConcurrentBufferPool pool(&disk, options);

  // Sustained failure trips the breaker...
  for (uint32_t i = 0; i < 8; ++i) {
    EXPECT_FALSE(pool.FetchPinned(PageId{0, i % 8}).ok());
  }
  ASSERT_NE(pool.resilience(), nullptr);
  ASSERT_NE(pool.resilience()->breaker(), nullptr);
  EXPECT_GE(pool.resilience()->breaker()->trips(), 1u);

  // ...and after the device heals and the cooldown passes, the pool
  // serves reads again (possibly via one half-open probe round).
  disk.SetFaultInjector(nullptr);
  SleepUs(3000);
  bool recovered = false;
  for (int attempt = 0; attempt < 50 && !recovered; ++attempt) {
    recovered = pool.FetchPinned(PageId{0, 0}).ok();
    if (!recovered) SleepUs(1000);
  }
  EXPECT_TRUE(recovered);
  // More successful misses complete the half-open probe streak (a buffer
  // hit never reaches the breaker, so fetch pages not yet resident).
  for (uint32_t p = 1; p < 4; ++p) {
    EXPECT_TRUE(pool.FetchPinned(PageId{0, p}).ok());
  }
  EXPECT_EQ(pool.resilience()->breaker()->state(), BreakerState::kClosed);
}

// ---- Half-open admits exactly one probe, even under concurrency. ----

TEST(CircuitBreakerHalfOpenTest, SingleProbeSlotSequential) {
  uint64_t now = 0;
  CircuitBreaker breaker(SmallBreaker(), [&now] { return now; });
  for (int i = 0; i < 4; ++i) breaker.RecordFailure();
  ASSERT_EQ(breaker.state(), BreakerState::kOpen);
  now += 1000;

  // The first caller after the cooldown owns the probe; every caller
  // until it records an outcome fails fast (counted as a reject).
  EXPECT_TRUE(breaker.AllowRequest());
  EXPECT_EQ(breaker.state(), BreakerState::kHalfOpen);
  EXPECT_FALSE(breaker.AllowRequest());
  EXPECT_FALSE(breaker.AllowRequest());
  EXPECT_EQ(breaker.rejects(), 2u);

  // The probe's success frees the slot for the next probe; the streak
  // (2 successes) closes the breaker.
  breaker.RecordSuccess();
  EXPECT_EQ(breaker.state(), BreakerState::kHalfOpen);
  EXPECT_TRUE(breaker.AllowRequest());
  EXPECT_FALSE(breaker.AllowRequest());
  breaker.RecordSuccess();
  EXPECT_EQ(breaker.state(), BreakerState::kClosed);
}

TEST(CircuitBreakerHalfOpenTest, FailedProbeReopensAndHoldsUntilCooldown) {
  uint64_t now = 0;
  CircuitBreaker breaker(SmallBreaker(), [&now] { return now; });
  for (int i = 0; i < 4; ++i) breaker.RecordFailure();
  now += 1000;
  ASSERT_TRUE(breaker.AllowRequest());
  ASSERT_EQ(breaker.state(), BreakerState::kHalfOpen);

  // The failed probe slams the breaker open AND releases the slot: no
  // caller is admitted until a full new cooldown elapses.
  breaker.RecordFailure();
  EXPECT_EQ(breaker.state(), BreakerState::kOpen);
  EXPECT_FALSE(breaker.AllowRequest());
  now += 999;
  EXPECT_FALSE(breaker.AllowRequest());
  now += 1;
  EXPECT_TRUE(breaker.AllowRequest());  // New probe, new cooldown.
  EXPECT_EQ(breaker.state(), BreakerState::kHalfOpen);
  breaker.RecordFailure();
  EXPECT_EQ(breaker.state(), BreakerState::kOpen);
}

TEST(CircuitBreakerHalfOpenTest, ConcurrentCallersExactlyOneWinsProbe) {
  // Many threads race AllowRequest the moment the cooldown elapses;
  // the single-probe gate must admit exactly one of them, however the
  // scheduler interleaves.
  for (int round = 0; round < 20; ++round) {
    uint64_t now = 0;
    CircuitBreaker breaker(SmallBreaker(), [&now] { return now; });
    for (int i = 0; i < 4; ++i) breaker.RecordFailure();
    ASSERT_EQ(breaker.state(), BreakerState::kOpen);
    now = 1000;  // Written before the threads start: no clock race.

    constexpr int kCallers = 8;
    std::atomic<int> admitted{0};
    std::atomic<int> rejected{0};
    std::vector<std::thread> callers;
    callers.reserve(kCallers);
    for (int t = 0; t < kCallers; ++t) {
      callers.emplace_back([&] {
        if (breaker.AllowRequest()) {
          ++admitted;
        } else {
          ++rejected;
        }
      });
    }
    for (std::thread& t : callers) t.join();

    EXPECT_EQ(admitted.load(), 1) << "round " << round;
    EXPECT_EQ(rejected.load(), kCallers - 1) << "round " << round;
    EXPECT_EQ(breaker.state(), BreakerState::kHalfOpen);

    // The winner records its outcome; a success keeps probing alive, so
    // the next lone caller is admitted — the slot did not wedge.
    breaker.RecordSuccess();
    EXPECT_TRUE(breaker.AllowRequest());
    breaker.RecordSuccess();
    EXPECT_EQ(breaker.state(), BreakerState::kClosed);
  }
}

}  // namespace
}  // namespace irbuf::fault
