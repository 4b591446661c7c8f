#include "serve/concurrent_buffer_pool.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <thread>
#include <vector>

#include "../buffer/test_disk.h"
#include "buffer/policy_factory.h"
#include "buffer/readahead_cursor.h"
#include "obs/metrics.h"
#include "quiesce.h"
#include "util/rng.h"

namespace irbuf::serve {
namespace {

using buffer::MakeTestDisk;
using buffer::PinnedPage;
using buffer::PolicyKind;

ConcurrentPoolOptions Opts(size_t capacity,
                           PolicyKind policy = PolicyKind::kLru) {
  ConcurrentPoolOptions o;
  o.capacity = capacity;
  o.policy = policy;
  return o;
}

TEST(ConcurrentPoolTest, PinBlocksEvictionAndReleaseAllows) {
  auto disk = MakeTestDisk({3});
  ConcurrentBufferPool pool(disk.get(), Opts(2));

  auto a = pool.FetchPinned(PageId{0, 0});
  ASSERT_TRUE(a.ok());
  EXPECT_TRUE(a.value().was_miss());
  EXPECT_EQ(pool.PinCount(PageId{0, 0}), 1u);

  auto b = pool.FetchPinned(PageId{0, 1});
  ASSERT_TRUE(b.ok());

  // Both frames pinned: a third distinct page cannot get a frame.
  auto c = pool.FetchPinned(PageId{0, 2});
  ASSERT_FALSE(c.ok());
  EXPECT_EQ(c.status().code(), StatusCode::kResourceExhausted);

  // Releasing one pin frees exactly one frame.
  a.value().Release();
  EXPECT_EQ(pool.PinCount(PageId{0, 0}), 0u);
  auto c2 = pool.FetchPinned(PageId{0, 2});
  ASSERT_TRUE(c2.ok());
  // Page {0,0} was the only unpinned frame, so it was the victim.
  EXPECT_EQ(pool.ResidentPages(0), 2u);
  EXPECT_EQ(pool.PinCount(PageId{0, 1}), 1u);

  const buffer::BufferStats stats = pool.StatsSnapshot();
  EXPECT_EQ(stats.fetches, stats.hits + stats.misses);
  EXPECT_EQ(stats.evictions, 1u);
}

TEST(ConcurrentPoolTest, PinnedPointerSurvivesEvictionPressure) {
  auto disk = MakeTestDisk({8});
  ConcurrentBufferPool pool(disk.get(), Opts(3));

  auto pinned = pool.FetchPinned(PageId{0, 0});
  ASSERT_TRUE(pinned.ok());
  const storage::Page* raw = pinned.value().get();
  ASSERT_NE(raw, nullptr);

  // Churn every other frame several times over.
  for (int round = 0; round < 3; ++round) {
    for (uint32_t p = 1; p < 8; ++p) {
      auto r = pool.FetchPinned(PageId{0, p});
      ASSERT_TRUE(r.ok());
    }
  }
  // The pinned page was never evicted and its frame never recycled.
  EXPECT_EQ(pinned.value().get(), raw);
  EXPECT_EQ(raw->id.page_no, 0u);
  EXPECT_EQ(pool.PinCount(PageId{0, 0}), 1u);
}

TEST(ConcurrentPoolTest, HitMissAttributionPerFetch) {
  auto disk = MakeTestDisk({2});
  ConcurrentBufferPool pool(disk.get(), Opts(4));

  auto miss = pool.FetchPinned(PageId{0, 0});
  ASSERT_TRUE(miss.ok());
  EXPECT_TRUE(miss.value().was_miss());
  miss.value().Release();

  auto hit = pool.FetchPinned(PageId{0, 0});
  ASSERT_TRUE(hit.ok());
  EXPECT_FALSE(hit.value().was_miss());

  const buffer::BufferStats stats = pool.StatsSnapshot();
  EXPECT_EQ(stats.fetches, 2u);
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.misses, disk->stats().reads);
}

TEST(ConcurrentPoolTest, UnknownPageReportsNotFoundAndFreesTheFrame) {
  auto disk = MakeTestDisk({1});
  ConcurrentBufferPool pool(disk.get(), Opts(1));

  auto bad = pool.FetchPinned(PageId{7, 0});
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kNotFound);

  // The reserved frame went back to the free list; the pool still works
  // and the failed fetch was not counted (misses == disk reads).
  auto good = pool.FetchPinned(PageId{0, 0});
  ASSERT_TRUE(good.ok());
  EXPECT_EQ(pool.StatsSnapshot().misses, disk->stats().reads);
}

/// What the single-threaded buffer manager this pool replaced produced
/// for the fetch sequence below, recorded before it was deleted: final
/// counters, per-term b_t, the resident set, and FNV-1a digests of the
/// hit/miss pattern and of the victim sequence (packed PageIds in
/// eviction order), plus its first twelve victims.
struct FrozenRun {
  uint64_t fetches, hits, misses, evictions;
  uint32_t resident[4];
  uint64_t miss_digest;
  size_t victims;
  uint64_t victim_digest;
  std::vector<PageId> first_victims;
  std::vector<PageId> final_resident;  // Sorted by Pack().
};

uint64_t Fnv(uint64_t h, uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xFFu;
    h *= 0x100000001B3ull;
  }
  return h;
}

/// Drives a one-thread pool through 400 seeded fetches over four terms
/// and asserts every decision matches the frozen reference.
void ExpectFrozenRun(PolicyKind kind, bool with_context,
                     const FrozenRun& want) {
  auto disk = MakeTestDisk({6, 4, 5, 3});
  ConcurrentBufferPool pool(disk.get(), Opts(4, kind));
  if (with_context) {
    buffer::QueryContext ctx;
    ctx.SetWeight(0, 2.0);
    ctx.SetWeight(2, 5.0);
    pool.SetQueryContext(std::move(ctx));
  }
  constexpr uint64_t kFnvSeed = 0xCBF29CE484222325ull;
  uint64_t victim_digest = kFnvSeed;
  std::vector<PageId> victims;
  pool.SetEvictionObserver([&](const EvictionEvent& ev) {
    EXPECT_TRUE(ev.policy_victim);
    victim_digest = Fnv(victim_digest, ev.page.Pack());
    victims.push_back(ev.page);
  });

  Pcg32 rng(99);
  const std::vector<uint32_t> pages = {6, 4, 5, 3};
  uint64_t miss_digest = kFnvSeed;
  for (int i = 0; i < 400; ++i) {
    const TermId term = rng.NextBounded(4);
    const PageId id{term, rng.NextBounded(pages[term])};
    auto fetched = pool.FetchPinned(id);
    ASSERT_TRUE(fetched.ok());
    miss_digest = Fnv(miss_digest, fetched.value().was_miss() ? 1 : 0);
  }
  const buffer::BufferStats stats = pool.StatsSnapshot();
  EXPECT_EQ(stats.fetches, want.fetches);
  EXPECT_EQ(stats.hits, want.hits);
  EXPECT_EQ(stats.misses, want.misses);
  EXPECT_EQ(stats.evictions, want.evictions);
  for (TermId t = 0; t < 4; ++t) {
    EXPECT_EQ(pool.ResidentPages(t), want.resident[t]) << "t" << t;
  }
  EXPECT_EQ(miss_digest, want.miss_digest);
  EXPECT_EQ(victims.size(), want.victims);
  EXPECT_EQ(victim_digest, want.victim_digest);
  ASSERT_GE(victims.size(), want.first_victims.size());
  for (size_t i = 0; i < want.first_victims.size(); ++i) {
    EXPECT_EQ(victims[i], want.first_victims[i]) << "victim " << i;
  }
  std::vector<PageId> resident = pool.ResidentPageIds();
  std::sort(resident.begin(), resident.end(),
            [](PageId a, PageId b) { return a.Pack() < b.Pack(); });
  EXPECT_EQ(resident, want.final_resident);
}

TEST(ConcurrentPoolTest, SingleThreadMatchesBufferManagerLru) {
  ExpectFrozenRun(PolicyKind::kLru, false,
                  {400, 86, 314, 310, {1, 0, 1, 2}, 0xC5B19DB52D23FC25ull,
                   310, 0xF43521C2F5B1FD77ull,
                   {{1, 0}, {0, 3}, {2, 0}, {3, 1}, {1, 3}, {3, 0},
                    {0, 0}, {0, 4}, {2, 3}, {0, 5}, {3, 2}, {3, 1}},
                   {{0, 1}, {2, 3}, {3, 0}, {3, 1}}});
}

TEST(ConcurrentPoolTest, SingleThreadMatchesBufferManagerRap) {
  ExpectFrozenRun(PolicyKind::kRap, true,
                  {400, 76, 324, 320, {1, 0, 3, 0}, 0x19C3D1B9348F10A5ull,
                   320, 0x6BD7CBB15C620826ull,
                   {{3, 1}, {1, 3}, {3, 0}, {1, 0}, {0, 4}, {0, 5},
                    {0, 3}, {0, 5}, {1, 2}, {3, 2}, {3, 1}, {1, 2}},
                   {{0, 1}, {2, 0}, {2, 1}, {2, 2}}});
}

TEST(ConcurrentPoolTest, SingleThreadMatchesBufferManagerClock) {
  ExpectFrozenRun(PolicyKind::kClock, false,
                  {400, 90, 310, 306, {1, 0, 1, 2}, 0x900CDEC38F949A45ull,
                   306, 0x7C1B5E1C22828246ull,
                   {{1, 0}, {0, 3}, {2, 0}, {3, 1}, {1, 3}, {3, 0},
                    {0, 0}, {0, 4}, {0, 5}, {3, 2}, {2, 3}, {1, 2}},
                   {{0, 1}, {2, 3}, {3, 1}, {3, 2}}});
}

TEST(ConcurrentPoolTest, ExternalContextModeIgnoresSetQueryContext) {
  auto disk = MakeTestDisk({2});
  ConcurrentBufferPool pool(disk.get(), Opts(2, PolicyKind::kRap));
  pool.SetExternalContextMode(true);
  buffer::QueryContext ctx;
  ctx.SetWeight(0, 3.0);
  pool.SetQueryContext(std::move(ctx));  // Must be a no-op, not a crash.
  auto r = pool.FetchPinned(PageId{0, 0});
  EXPECT_TRUE(r.ok());
}

// Conservation holds on the registry's exported values, not only on the
// pool's own snapshots: 8 threads scan through a depth-4 readahead pool
// whose pool and disk are bound to one registry, and at quiescence the
// pulled counters conserve and equal the snapshots they are read from.
TEST(ConcurrentPoolTest, RegistryCountersConserveUnderReadahead) {
  constexpr int kThreads = 8;
  constexpr uint32_t kPages = 24;
  auto disk = MakeTestDisk(std::vector<uint32_t>(kThreads, kPages));
  ConcurrentPoolOptions opts = Opts(48);
  opts.prefetch_depth = 4;  // B = min(max(64, 32), 24) = 24.
  obs::MetricsRegistry registry;  // Outlives the pool's workers.
  ConcurrentBufferPool pool(disk.get(), opts);
  pool.BindMetrics(&registry);
  disk->BindMetrics(&registry);

  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&pool, t] {
      // Three rounds over shifted terms: threads share and evict pages.
      for (int round = 0; round < 3; ++round) {
        const TermId term = static_cast<TermId>((t + round) % kThreads);
        buffer::ReadaheadCursor readahead(&pool, term, pool.PrefetchDepth(),
                                          kPages);
        for (uint32_t p = 0; p < kPages; ++p) {
          readahead.BeforeFetch(p);
          auto page = pool.FetchPinned(PageId{term, p});
          ASSERT_TRUE(page.ok()) << page.status().message();
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  Quiesce(pool, disk.get());

  auto value = [&registry](const char* name) {
    const std::optional<uint64_t> v = registry.CounterValue(name);
    EXPECT_TRUE(v.has_value()) << name;
    return v.value_or(0);
  };
  EXPECT_EQ(value("buffer.fetches"),
            value("buffer.hits") + value("buffer.misses"));
  EXPECT_EQ(value("buffer.misses") + value("buffer.prefetch_issued"),
            value("disk.reads"));

  const buffer::BufferStats stats = pool.StatsSnapshot();
  const PoolPrefetchStats prefetch = pool.PrefetchStatsSnapshot();
  EXPECT_EQ(stats.fetches, uint64_t{kThreads} * 3 * kPages);
  EXPECT_GT(prefetch.issued, 0u);  // Readahead really ran...
  EXPECT_GT(stats.evictions, 0u);  // ...and the pool really evicted.
  EXPECT_EQ(value("buffer.fetches"), stats.fetches);
  EXPECT_EQ(value("buffer.hits"), stats.hits);
  EXPECT_EQ(value("buffer.misses"), stats.misses);
  EXPECT_EQ(value("buffer.evictions"), stats.evictions);
  EXPECT_EQ(value("buffer.prefetch_issued"), prefetch.issued);
  EXPECT_EQ(value("buffer.prefetch_used"), prefetch.used);
  EXPECT_EQ(value("buffer.prefetch_wasted"), prefetch.wasted);
  EXPECT_EQ(value("buffer.prefetch_dropped"), prefetch.dropped);
  EXPECT_EQ(value("buffer.coalesced_misses"), prefetch.coalesced_misses);
  EXPECT_EQ(value("disk.reads"), disk->stats().reads);
}

}  // namespace
}  // namespace irbuf::serve
