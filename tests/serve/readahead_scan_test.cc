// Per-scan readahead: every term scan keeps `depth` reads in flight
// through buffer::ReadaheadCursor, the pool starts its I/O workers
// lazily up to one bound B = min(max(64, 8*depth), capacity/2) that also
// caps the hint queue and the prefetch-tagged window. Registered with
// the `concurrency` label, so CI's ThreadSanitizer job runs the lazily
// started worker set.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "../buffer/test_disk.h"
#include "../core/test_index.h"
#include "quiesce.h"
#include "buffer/readahead_cursor.h"
#include "core/filtering_evaluator.h"
#include "core/quit_continue_evaluator.h"
#include "fault/backoff.h"
#include "fault/fault_injector.h"
#include "fault/fault_spec.h"
#include "obs/metrics.h"
#include "serve/concurrent_buffer_pool.h"
#include "util/zipf.h"

namespace irbuf::serve {
namespace {

/// Threads of this process, from /proc; -1 where /proc is unavailable.
int ThreadCount() {
  std::ifstream status("/proc/self/status");
  std::string key;
  while (status >> key) {
    if (key == "Threads:") {
      int n = -1;
      status >> n;
      return n;
    }
  }
  return -1;
}

/// Scans pages [0, pages) of `term` in order, the way an evaluator does.
void Scan(ConcurrentBufferPool* pool, TermId term, uint32_t pages) {
  buffer::ReadaheadCursor readahead(pool, term, pool->PrefetchDepth(), pages);
  for (uint32_t p = 0; p < pages; ++p) {
    readahead.BeforeFetch(p);
    auto page = pool->FetchPinned(PageId{term, p});
    ASSERT_TRUE(page.ok()) << page.status().message();
    ASSERT_EQ(page.value()->id.page_no, p);
  }
}

// Eight concurrent cold scans each get their own `depth` reads in
// flight: a 32-page scan at depth 4 advances ~4 pages per miss delay D,
// so it finishes within (32/4 + 3)·D. A pool-wide cap of 4 readahead
// reads (one worker per depth slot) would need ~256/12 ≈ 21·D.
TEST(ReadaheadScanTest, ConcurrentColdScansEachKeepDepthReadsInFlight) {
  constexpr size_t kScans = 8;
  constexpr uint32_t kPages = 32;
  constexpr uint32_t kDepth = 4;
  // Long enough that per-page CPU cost (thread start-up, sanitizer
  // instrumentation) stays small against the bound's slack of 3·D.
  constexpr uint32_t kDelayUs = 50000;
  auto disk = buffer::MakeTestDisk(std::vector<uint32_t>(kScans, kPages));
  ConcurrentPoolOptions opts;
  opts.capacity = 512;  // B = min(max(64, 32), 256) = 64; no eviction.
  opts.prefetch_depth = kDepth;
  opts.io_delay_us_per_miss = kDelayUs;
  ConcurrentBufferPool pool(disk.get(), opts);

  std::vector<double> scan_ms(kScans, 0.0);
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kScans; ++t) {
    threads.emplace_back([&, t] {
      const auto start = std::chrono::steady_clock::now();
      Scan(&pool, static_cast<TermId>(t), kPages);
      scan_ms[t] = std::chrono::duration<double, std::milli>(
                       std::chrono::steady_clock::now() - start)
                       .count();
    });
  }
  for (std::thread& t : threads) t.join();

  const double bound_ms = (kPages / kDepth + 3) * kDelayUs / 1000.0;
  for (size_t t = 0; t < kScans; ++t) {
    EXPECT_LE(scan_ms[t], bound_ms) << "scan " << t;
  }
  Quiesce(pool, disk.get());
  // Every page was read exactly once, by demand or by readahead.
  EXPECT_EQ(disk->stats().reads, kScans * kPages);
  EXPECT_EQ(pool.PrefetchStatsSnapshot().dropped, 0u);
}

// A scan that stops early on f_add leaves at most `depth` read-ahead
// pages it never demanded. Term 0 (one posting, freq 50) sets Smax;
// c_add is chosen so term 1's f_add is 20. Term 1 has 32 pages: four of
// freq 40, then freq 11. PagesToProcess clamps thresholds at 10, so the
// plan covers all 32 pages, while the scan stops on page 4.
TEST(ReadaheadScanTest, EarlyStopLeavesAtMostDepthUndemandedPages) {
  constexpr uint32_t kDepth = 4;
  std::vector<std::vector<Posting>> lists(2);
  lists[0].push_back(Posting{0, 50});
  for (DocId d = 1; d <= 128; ++d) {
    lists[1].push_back(Posting{d, d <= 16 ? 40u : 11u});
  }
  core::TestCollection tc = core::MakeCollection(200, 4, std::move(lists));
  const double idf0 = tc.index.lexicon().info(0).idf;
  const double idf1 = tc.index.lexicon().info(1).idf;
  ASSERT_EQ(tc.index.lexicon().info(1).pages, 32u);

  core::EvalOptions eval;
  // f_add(term 1) = c_add * Smax / idf1^2 with Smax = 50 * idf0^2.
  eval.c_add = 20.0 * idf1 * idf1 / (50.0 * idf0 * idf0);
  eval.c_ins = eval.c_add;
  core::FilteringEvaluator evaluator(&tc.index, eval);
  core::Query query;
  query.AddTerm(0, 1);
  query.AddTerm(1, 1);

  ConcurrentPoolOptions opts;
  opts.capacity = 128;  // B = 64: the window never reclaims here.
  opts.prefetch_depth = kDepth;
  ConcurrentBufferPool pool(&tc.index.disk(), opts);
  auto result = evaluator.Evaluate(query, &pool);
  ASSERT_TRUE(result.ok()) << result.status().message();
  // Term 0's page plus term 1's pages 0..4: the scan stopped early.
  EXPECT_EQ(result.value().pages_processed, 6u);

  Quiesce(pool, &tc.index.disk());
  const PoolPrefetchStats ps = pool.PrefetchStatsSnapshot();
  EXPECT_LE(ps.issued - ps.used - ps.wasted, kDepth);
  EXPECT_EQ(ps.wasted, 0u);
}

// Quit/continue scans whole lists through the same cursor: readahead
// serves its pages, and its rankings match the depth-0 pool bit for bit.
TEST(ReadaheadScanTest, QuitContinueRankingsUnchangedByReadahead) {
  core::TestCollection tc = core::MakeRandomCollection(41, 120, 8, 4);
  core::QuitContinueOptions qc;
  qc.accumulator_limit = 60;
  core::QuitContinueEvaluator evaluator(&tc.index, qc);
  core::Query query;
  for (TermId t = 0; t < 4; ++t) query.AddTerm(t, 1);

  ConcurrentPoolOptions off;
  off.capacity = 64;
  ConcurrentPoolOptions on = off;
  on.prefetch_depth = 4;
  on.io_delay_us_per_miss = 2000;  // Hints land before their demand.
  ConcurrentBufferPool pool_off(&tc.index.disk(), off);
  ConcurrentBufferPool pool_on(&tc.index.disk(), on);
  auto a = evaluator.Evaluate(query, &pool_off);
  auto b = evaluator.Evaluate(query, &pool_on);
  ASSERT_TRUE(a.ok() && b.ok());
  ASSERT_EQ(a.value().top_docs.size(), b.value().top_docs.size());
  for (size_t r = 0; r < a.value().top_docs.size(); ++r) {
    EXPECT_EQ(a.value().top_docs[r].doc, b.value().top_docs[r].doc);
    EXPECT_EQ(a.value().top_docs[r].score, b.value().top_docs[r].score);
  }
  EXPECT_EQ(a.value().pages_processed, b.value().pages_processed);
  EXPECT_GT(pool_on.PrefetchStatsSnapshot().used, 0u);
}

// Depth 0 never starts a thread; a readahead pool starts its workers
// lazily, on the first hint, and joins them all on destruction.
TEST(ReadaheadScanTest, DepthZeroStartsNoThreadAndWorkersStartLazily) {
  // Start one thread first, so helper threads a runtime spawns on the
  // first thread start (a sanitizer's background thread) already exist.
  std::thread([] {}).join();
  const int before = ThreadCount();
  if (before < 0) GTEST_SKIP() << "/proc/self/status unavailable";
  auto disk = buffer::MakeTestDisk({8});
  {
    ConcurrentPoolOptions opts;
    opts.capacity = 16;
    ConcurrentBufferPool pool(disk.get(), opts);
    Scan(&pool, 0, 8);
    const PageId hint{0, 3};
    pool.Prefetch(buffer::PageAccessPlan(&hint, 1));
    EXPECT_EQ(ThreadCount(), before);
  }
  {
    ConcurrentPoolOptions opts;
    opts.capacity = 16;
    opts.prefetch_depth = 4;
    ConcurrentBufferPool pool(disk.get(), opts);
    EXPECT_EQ(ThreadCount(), before);  // Nothing hinted yet.
    const PageId hint{0, 5};
    pool.Prefetch(buffer::PageAccessPlan(&hint, 1));
    EXPECT_EQ(ThreadCount(), before + 1);
  }
  EXPECT_EQ(ThreadCount(), before);
}

// The hint queue holds at most B entries; the rest of a plan is dropped
// and counted, in the snapshot and in the registry.
TEST(ReadaheadScanTest, HintsPastTheBoundAreDroppedAndCounted) {
  auto disk = buffer::MakeTestDisk({20});
  ConcurrentPoolOptions opts;
  opts.capacity = 16;
  opts.prefetch_depth = 2;  // B = min(max(64, 16), 8) = 8.
  obs::MetricsRegistry registry;  // Outlives the pool's workers.
  ConcurrentBufferPool pool(disk.get(), opts);
  pool.BindMetrics(&registry);

  std::vector<PageId> plan;
  for (uint32_t p = 0; p < 20; ++p) plan.push_back(PageId{0, p});
  pool.Prefetch(buffer::PageAccessPlan(plan.data(), plan.size()));
  EXPECT_EQ(pool.PrefetchStatsSnapshot().dropped, 12u);
  const std::optional<uint64_t> dropped =
      registry.CounterValue("buffer.prefetch_dropped");
  ASSERT_TRUE(dropped.has_value());
  EXPECT_EQ(*dropped, 12u);
  Quiesce(pool, disk.get());
  EXPECT_EQ(pool.PrefetchStatsSnapshot().issued, 8u);
}

// Readahead never takes a tripped breaker's probe slot: after demand
// failures open the breaker and its cooldown has passed, a hint is
// dropped without calling the breaker, which stays open until a demand
// fetch probes it. (A hint that took the half-open probe would make a
// concurrent demand fetch fail fast and lose its page.)
TEST(ReadaheadScanTest, ReadaheadNeverProbesATrippedBreaker) {
  auto disk = buffer::MakeTestDisk({8, 4});
  fault::FaultSpec spec;
  fault::FaultRule bad{fault::FaultKind::kPermanentBadPage, 1.0};
  bad.term_hi = 0;  // Only term 0 is bad media.
  spec.rules.push_back(bad);
  fault::FaultInjector injector(spec);
  disk->SetFaultInjector(&injector);

  ConcurrentPoolOptions opts;
  opts.capacity = 16;
  opts.prefetch_depth = 2;
  opts.resilience.enabled = true;
  opts.resilience.sleep_on_backoff = false;
  ConcurrentBufferPool pool(disk.get(), opts);
  for (uint32_t p = 0; p < 8; ++p) {
    EXPECT_FALSE(pool.FetchPinned(PageId{0, p}).ok());
  }
  const fault::CircuitBreaker* breaker = pool.resilience()->breaker();
  ASSERT_NE(breaker, nullptr);
  ASSERT_EQ(breaker->state(), fault::BreakerState::kOpen);
  fault::SleepUs(2 * opts.resilience.breaker.open_cooldown_us);

  const PageId hint{1, 1};
  pool.Prefetch(buffer::PageAccessPlan(&hint, 1));
  fault::SleepUs(50000);
  EXPECT_EQ(pool.PrefetchStatsSnapshot().issued, 0u);
  EXPECT_EQ(breaker->state(), fault::BreakerState::kOpen);
  // The demand fetch is the probe, and it succeeds.
  EXPECT_TRUE(pool.FetchPinned(PageId{1, 0}).ok());
  EXPECT_EQ(breaker->state(), fault::BreakerState::kHalfOpen);
  disk->SetFaultInjector(nullptr);
}

// Demand fetches, sliding readahead, window reclaims and dropped hints
// racing on one small pool: at quiescence every device read is counted
// once, misses + prefetch_issued == device_reads == the disk's count.
TEST(ReadaheadScanTest, DeviceReadsConserveAtQuiescence) {
  core::TestCollection tc = core::MakeRandomCollection(77, 400, 16, 4);
  core::EvalOptions eval;
  core::FilteringEvaluator evaluator(&tc.index, eval);
  ConcurrentPoolOptions opts;
  opts.capacity = 48;  // B = 24: evictions and window reclaims happen.
  opts.prefetch_depth = 4;
  opts.io_delay_us_per_miss = 200;
  ConcurrentBufferPool pool(&tc.index.disk(), opts);

  std::vector<std::thread> threads;
  std::atomic<int> failures{0};
  for (size_t t = 0; t < 8; ++t) {
    threads.emplace_back([&, t] {
      Pcg32 rng(31 + t);
      for (int i = 0; i < 25; ++i) {
        core::Query q;
        for (TermId term : SampleDistinct(16, 2 + rng.NextBounded(3), &rng)) {
          q.AddTerm(term, 1);
        }
        if (!evaluator.Evaluate(q, &pool).ok()) ++failures;
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);

  Quiesce(pool, &tc.index.disk());
  const buffer::BufferStats stats = pool.StatsSnapshot();
  const PoolPrefetchStats ps = pool.PrefetchStatsSnapshot();
  EXPECT_EQ(stats.fetches, stats.hits + stats.misses);
  EXPECT_EQ(stats.misses + ps.issued, ps.device_reads);
  EXPECT_EQ(ps.device_reads, tc.index.disk().stats().reads);
  EXPECT_GT(ps.issued, 0u);
  EXPECT_GT(stats.evictions, 0u);
}

}  // namespace
}  // namespace irbuf::serve
