#include "fault/backoff.h"

#include <gtest/gtest.h>

#include "fault/fault_injector.h"
#include "fault/resilient.h"
#include "serve/concurrent_buffer_pool.h"
#include "test_disk.h"

namespace irbuf::buffer {
namespace {

using fault::BackoffPolicy;
using fault::ExponentialBackoff;

TEST(BackoffTest, DeterministicFromSeed) {
  BackoffPolicy policy;
  ExponentialBackoff a(policy, 42);
  ExponentialBackoff b(policy, 42);
  while (a.CanRetry()) {
    ASSERT_TRUE(b.CanRetry());
    EXPECT_EQ(a.NextDelayUs(), b.NextDelayUs());
  }
  EXPECT_FALSE(b.CanRetry());
}

TEST(BackoffTest, ZeroJitterGivesExactSchedule) {
  BackoffPolicy policy;
  policy.max_retries = 4;
  policy.initial_delay_us = 100;
  policy.multiplier = 2.0;
  policy.max_delay_us = 10000;
  policy.jitter = 0.0;
  ExponentialBackoff backoff(policy, 7);
  EXPECT_EQ(backoff.NextDelayUs(), 100u);
  EXPECT_EQ(backoff.NextDelayUs(), 200u);
  EXPECT_EQ(backoff.NextDelayUs(), 400u);
  EXPECT_EQ(backoff.NextDelayUs(), 800u);
  EXPECT_FALSE(backoff.CanRetry());
}

TEST(BackoffTest, JitteredDelayStaysInsideTheBand) {
  BackoffPolicy policy;
  policy.max_retries = 3;
  policy.initial_delay_us = 1000;
  policy.multiplier = 2.0;
  policy.jitter = 0.5;
  for (uint64_t seed = 1; seed <= 50; ++seed) {
    ExponentialBackoff backoff(policy, seed);
    uint64_t nominal = policy.initial_delay_us;
    while (backoff.CanRetry()) {
      const uint64_t delay = backoff.NextDelayUs();
      EXPECT_GE(delay, nominal / 2) << "seed " << seed;
      EXPECT_LE(delay, nominal) << "seed " << seed;
      nominal *= 2;
    }
  }
}

TEST(BackoffTest, DelayCapsAtMaximum) {
  BackoffPolicy policy;
  policy.max_retries = 6;
  policy.initial_delay_us = 100;
  policy.multiplier = 10.0;
  policy.max_delay_us = 500;
  policy.jitter = 0.0;
  ExponentialBackoff backoff(policy, 3);
  EXPECT_EQ(backoff.NextDelayUs(), 100u);
  for (int i = 0; i < 5; ++i) EXPECT_EQ(backoff.NextDelayUs(), 500u);
}

// ---- The buffer pool's miss-path retry loop. ----

fault::ResilienceOptions FastResilience() {
  fault::ResilienceOptions options;
  options.enabled = true;
  options.breaker_enabled = false;
  options.sleep_on_backoff = false;  // Schedules drawn, not slept.
  return options;
}

serve::ConcurrentPoolOptions LruPool(size_t capacity,
                                     fault::ResilienceOptions resilience) {
  serve::ConcurrentPoolOptions options = serve::PoolOptions(capacity);
  options.resilience = resilience;
  return options;
}

TEST(BufferRetryTest, TransientErrorsAreRetriedToSuccess) {
  auto disk = MakeTestDisk({4});
  fault::FaultSpec spec;
  fault::FaultRule rule{fault::FaultKind::kTransientRead, 1.0};
  rule.max_faults = 2;  // Fails exactly twice, then the device is clean.
  spec.rules.push_back(rule);
  fault::FaultInjector injector(spec);
  disk->SetFaultInjector(&injector);

  serve::ConcurrentBufferPool pool(disk.get(), LruPool(2, FastResilience()));
  auto page = pool.FetchPinned(PageId{0, 0});
  ASSERT_TRUE(page.ok()) << page.status().ToString();
  EXPECT_EQ(page.value()->id, (PageId{0, 0}));
  ASSERT_NE(pool.resilience(), nullptr);
  EXPECT_EQ(pool.resilience()->total_retries(), 2u);
  EXPECT_EQ(pool.resilience()->retries_exhausted(), 0u);
  // One successful fetch: the stats see a single miss, not the retries.
  EXPECT_EQ(pool.StatsSnapshot().fetches, 1u);
  EXPECT_EQ(pool.StatsSnapshot().misses, 1u);
}

TEST(BufferRetryTest, ExhaustedRetriesSurfaceTheError) {
  auto disk = MakeTestDisk({4});
  fault::FaultSpec spec;
  spec.rules.push_back({fault::FaultKind::kTransientRead, 1.0});
  fault::FaultInjector injector(spec);
  disk->SetFaultInjector(&injector);

  fault::ResilienceOptions options = FastResilience();
  options.backoff.max_retries = 3;
  serve::ConcurrentBufferPool pool(disk.get(), LruPool(2, options));
  auto page = pool.FetchPinned(PageId{0, 0});
  EXPECT_EQ(page.status().code(), StatusCode::kUnavailable);
  EXPECT_EQ(pool.resilience()->total_retries(), 3u);
  EXPECT_EQ(pool.resilience()->retries_exhausted(), 1u);
}

TEST(BufferRetryTest, FailedReadReturnsTheReservedFrame) {
  // Capacity 1: if a failed read leaked its reserved frame, the next
  // fetch would have no frame left. It must not cost pool capacity.
  auto disk = MakeTestDisk({4});
  fault::FaultSpec spec;
  fault::FaultRule rule{fault::FaultKind::kTransientRead, 1.0};
  rule.page_lo = 0;
  rule.page_hi = 0;
  spec.rules.push_back(rule);
  fault::FaultInjector injector(spec);
  disk->SetFaultInjector(&injector);

  serve::ConcurrentBufferPool pool(disk.get(), LruPool(1, FastResilience()));
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(pool.FetchPinned(PageId{0, 0}).status().code(),
              StatusCode::kUnavailable);
  }
  // Pages outside the faulted range still fit in the (single) frame.
  {
    auto ok_page = pool.FetchPinned(PageId{0, 1});
    ASSERT_TRUE(ok_page.ok()) << ok_page.status().ToString();
    EXPECT_EQ(ok_page.value()->id, (PageId{0, 1}));
  }
  // And once the device heals, so does the faulted page.
  disk->SetFaultInjector(nullptr);
  auto healed = pool.FetchPinned(PageId{0, 0});
  ASSERT_TRUE(healed.ok());
}

TEST(BufferRetryTest, PermanentBadPageIsNotRetried) {
  auto disk = MakeTestDisk({4});
  fault::FaultSpec spec;
  spec.rules.push_back({fault::FaultKind::kPermanentBadPage, 1.0});
  fault::FaultInjector injector(spec);
  disk->SetFaultInjector(&injector);

  serve::ConcurrentBufferPool pool(disk.get(), LruPool(2, FastResilience()));
  auto page = pool.FetchPinned(PageId{0, 0});
  EXPECT_EQ(page.status().code(), StatusCode::kIOError);
  // Bad media fails on the first attempt; burning the backoff schedule
  // on it would only slow the degraded query down.
  EXPECT_EQ(pool.resilience()->total_retries(), 0u);
}

TEST(BufferRetryTest, DisabledResilienceIsPassThrough) {
  auto disk = MakeTestDisk({4});
  fault::FaultSpec spec;
  spec.rules.push_back({fault::FaultKind::kTransientRead, 1.0});
  fault::FaultInjector injector(spec);
  disk->SetFaultInjector(&injector);

  serve::ConcurrentBufferPool pool(disk.get(), serve::PoolOptions(2));
  // Resilience off: the transient error surfaces unretried.
  auto page = pool.FetchPinned(PageId{0, 0});
  EXPECT_EQ(page.status().code(), StatusCode::kUnavailable);
  EXPECT_EQ(pool.resilience(), nullptr);
}

}  // namespace
}  // namespace irbuf::buffer
