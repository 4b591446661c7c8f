// The buffer manager's single-threaded contract, exercised on the one
// pool (serve::ConcurrentBufferPool) the simulator and the server share:
// hit/miss accounting, eviction, b_t counters, flush, the eviction
// observer and the tracer hook.

#include <gtest/gtest.h>

#include <vector>

#include "buffer/lru_policy.h"
#include "obs/query_tracer.h"
#include "serve/concurrent_buffer_pool.h"
#include "test_disk.h"

namespace irbuf::buffer {
namespace {

using serve::ConcurrentBufferPool;
using serve::PoolOptions;

TEST(BufferManagerTest, HitAndMissAccounting) {
  auto disk = MakeTestDisk({3});
  ConcurrentBufferPool bm(disk.get(), PoolOptions(2));

  ASSERT_TRUE(bm.FetchPinned(PageId{0, 0}).ok());  // Miss.
  ASSERT_TRUE(bm.FetchPinned(PageId{0, 0}).ok());  // Hit.
  ASSERT_TRUE(bm.FetchPinned(PageId{0, 1}).ok());  // Miss.
  const BufferStats stats = bm.StatsSnapshot();
  EXPECT_EQ(stats.fetches, 3u);
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 2u);
  EXPECT_EQ(stats.evictions, 0u);
  EXPECT_DOUBLE_EQ(stats.HitRate(), 1.0 / 3.0);
  // Misses equal disk reads.
  EXPECT_EQ(disk->stats().reads, 2u);
}

TEST(BufferManagerTest, EvictsWhenFull) {
  auto disk = MakeTestDisk({3});
  ConcurrentBufferPool bm(disk.get(), PoolOptions(2));
  ASSERT_TRUE(bm.FetchPinned(PageId{0, 0}).ok());
  ASSERT_TRUE(bm.FetchPinned(PageId{0, 1}).ok());
  ASSERT_TRUE(bm.FetchPinned(PageId{0, 2}).ok());  // Evicts page 0 (LRU).
  EXPECT_EQ(bm.StatsSnapshot().evictions, 1u);
  EXPECT_FALSE(Contains(bm, PageId{0, 0}));
  EXPECT_TRUE(Contains(bm, PageId{0, 1}));
  EXPECT_TRUE(Contains(bm, PageId{0, 2}));
}

TEST(BufferManagerTest, ReturnedPageContentIsCorrect) {
  auto disk = MakeTestDisk({2});
  ConcurrentBufferPool bm(disk.get(), PoolOptions(1));
  auto page = bm.FetchPinned(PageId{0, 1});
  ASSERT_TRUE(page.ok());
  EXPECT_EQ(page.value()->id, (PageId{0, 1}));
  EXPECT_EQ(page.value()->block.size(), 2u);
  EXPECT_DOUBLE_EQ(page.value()->max_weight, 99.0);
}

TEST(BufferManagerTest, ResidencyCountersTrackTerms) {
  auto disk = MakeTestDisk({3, 2});
  ConcurrentBufferPool bm(disk.get(), PoolOptions(4));
  EXPECT_EQ(bm.ResidentPages(0), 0u);
  ASSERT_TRUE(bm.FetchPinned(PageId{0, 0}).ok());
  ASSERT_TRUE(bm.FetchPinned(PageId{0, 1}).ok());
  ASSERT_TRUE(bm.FetchPinned(PageId{1, 0}).ok());
  EXPECT_EQ(bm.ResidentPages(0), 2u);
  EXPECT_EQ(bm.ResidentPages(1), 1u);
  EXPECT_EQ(bm.ResidentPages(99), 0u);

  // Refetching a resident page does not change counters.
  ASSERT_TRUE(bm.FetchPinned(PageId{0, 0}).ok());
  EXPECT_EQ(bm.ResidentPages(0), 2u);

  // Filling the pool evicts term 0's LRU page (0,1 was least recent).
  ASSERT_TRUE(bm.FetchPinned(PageId{0, 2}).ok());
  ASSERT_TRUE(bm.FetchPinned(PageId{1, 1}).ok());  // Pool now full; evict.
  EXPECT_EQ(bm.ResidentPages(0) + bm.ResidentPages(1), 4u);
}

TEST(BufferManagerTest, FlushEmptiesEverything) {
  auto disk = MakeTestDisk({3});
  ConcurrentBufferPool bm(disk.get(), PoolOptions(3));
  ASSERT_TRUE(bm.FetchPinned(PageId{0, 0}).ok());
  ASSERT_TRUE(bm.FetchPinned(PageId{0, 1}).ok());
  bm.Flush();
  EXPECT_FALSE(Contains(bm, PageId{0, 0}));
  EXPECT_EQ(bm.ResidentPages(0), 0u);
  EXPECT_TRUE(bm.ResidentPageIds().empty());
  // Fetch after flush is a miss again.
  ASSERT_TRUE(bm.FetchPinned(PageId{0, 0}).ok());
  EXPECT_EQ(bm.StatsSnapshot().misses, 3u);
}

TEST(BufferManagerTest, FlushKeepsCountersAndFrameOrder) {
  auto disk = MakeTestDisk({4});
  ConcurrentBufferPool bm(disk.get(), PoolOptions(2));
  ASSERT_TRUE(bm.FetchPinned(PageId{0, 0}).ok());
  ASSERT_TRUE(bm.FetchPinned(PageId{0, 1}).ok());
  ASSERT_TRUE(bm.FetchPinned(PageId{0, 2}).ok());  // Evicts (0,0).
  const BufferStats before = bm.StatsSnapshot();
  bm.Flush();
  const BufferStats after = bm.StatsSnapshot();
  EXPECT_EQ(after.fetches, before.fetches);
  EXPECT_EQ(after.misses, before.misses);
  EXPECT_EQ(after.evictions, before.evictions);
  // A flushed pool hands out frames lowest id first again, exactly like
  // a fresh one.
  auto pinned = bm.FetchPinned(PageId{0, 3});
  ASSERT_TRUE(pinned.ok());
  EXPECT_EQ(pinned.value().frame(), 0u);
}

TEST(BufferManagerTest, CapacityZeroClampsToOne) {
  auto disk = MakeTestDisk({2});
  ConcurrentBufferPool bm(disk.get(), PoolOptions(0));
  EXPECT_EQ(bm.capacity(), 1u);
  ASSERT_TRUE(bm.FetchPinned(PageId{0, 0}).ok());
  ASSERT_TRUE(bm.FetchPinned(PageId{0, 1}).ok());
  EXPECT_EQ(bm.StatsSnapshot().evictions, 1u);
}

TEST(BufferManagerTest, MissingPagePropagatesError) {
  auto disk = MakeTestDisk({1});
  ConcurrentBufferPool bm(disk.get(), PoolOptions(2));
  auto result = bm.FetchPinned(PageId{5, 0});
  EXPECT_EQ(result.status().code(), StatusCode::kNotFound);
}

TEST(BufferManagerTest, PoolLargerThanDataNeverEvicts) {
  auto disk = MakeTestDisk({5});
  ConcurrentBufferPool bm(disk.get(), PoolOptions(100));
  for (int round = 0; round < 3; ++round) {
    for (uint32_t p = 0; p < 5; ++p) {
      ASSERT_TRUE(bm.FetchPinned(PageId{0, p}).ok());
    }
  }
  EXPECT_EQ(bm.StatsSnapshot().misses, 5u);
  EXPECT_EQ(bm.StatsSnapshot().hits, 10u);
  EXPECT_EQ(bm.StatsSnapshot().evictions, 0u);
}

TEST(BufferManagerTest, EvictionCallbackSeesVictimMetadata) {
  auto disk = MakeTestDisk({3});
  ConcurrentBufferPool bm(disk.get(), PoolOptions(2));
  QueryContext context;
  context.SetWeight(0, 2.0);
  bm.SetQueryContext(std::move(context));

  std::vector<serve::EvictionEvent> events;
  bm.SetEvictionObserver(
      [&](const serve::EvictionEvent& ev) { events.push_back(ev); });

  ASSERT_TRUE(bm.FetchPinned(PageId{0, 0}).ok());
  ASSERT_TRUE(bm.FetchPinned(PageId{0, 1}).ok());
  ASSERT_TRUE(bm.FetchPinned(PageId{0, 2}).ok());  // Evicts (0,0), LRU.
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].page, (PageId{0, 0}));
  EXPECT_TRUE(events[0].policy_victim);
  // The RAP-style replacement value is max_weight * w_{q,t}.
  EXPECT_DOUBLE_EQ(events[0].value, events[0].max_weight * 2.0);
  // (0,0) entered at fetch 1; the eviction happens during fetch 3.
  EXPECT_EQ(events[0].age_fetches, 2u);

  // Clearing the callback stops delivery but not eviction itself.
  bm.SetEvictionObserver(nullptr);
  ASSERT_TRUE(bm.FetchPinned(PageId{0, 0}).ok());  // Evicts again.
  EXPECT_EQ(bm.StatsSnapshot().evictions, 2u);
  EXPECT_EQ(events.size(), 1u);
}

TEST(BufferManagerTest, TracerRecordsFetchesAndEvictions) {
  auto disk = MakeTestDisk({3});
  ConcurrentBufferPool bm(disk.get(), PoolOptions(2));
  obs::QueryTracer tracer;
  bm.SetTracer(&tracer);
  ASSERT_TRUE(bm.FetchPinned(PageId{0, 0}).ok());  // miss
  ASSERT_TRUE(bm.FetchPinned(PageId{0, 0}).ok());  // hit
  ASSERT_TRUE(bm.FetchPinned(PageId{0, 1}).ok());  // miss
  ASSERT_TRUE(bm.FetchPinned(PageId{0, 2}).ok());  // miss + evict

  EXPECT_EQ(tracer.CountKind(obs::TraceEventKind::kFetch), 4u);
  EXPECT_EQ(tracer.CountKind(obs::TraceEventKind::kEvict), 1u);
  size_t hits = 0;
  for (const obs::TraceEvent& e : tracer.events()) {
    if (e.kind == obs::TraceEventKind::kFetch && e.hit) ++hits;
  }
  EXPECT_EQ(hits, 1u);

  // Uninstalling stops recording.
  bm.SetTracer(nullptr);
  ASSERT_TRUE(bm.FetchPinned(PageId{0, 2}).ok());
  EXPECT_EQ(tracer.CountKind(obs::TraceEventKind::kFetch), 4u);
}

TEST(BufferManagerTest, FetchPinnedProtectsThePageFromEviction) {
  auto disk = MakeTestDisk({4});
  ConcurrentBufferPool bm(disk.get(), PoolOptions(2));
  auto pinned = bm.FetchPinned(PageId{0, 0});
  ASSERT_TRUE(pinned.ok());
  EXPECT_TRUE(pinned.value().was_miss());
  EXPECT_EQ(bm.PinCount(PageId{0, 0}), 1u);
  const storage::Page* raw = pinned.value().get();

  // Churn through the rest of the list; page 0 is LRU every time but
  // must never be the victim while pinned.
  for (int round = 0; round < 2; ++round) {
    for (uint32_t p = 1; p < 4; ++p) {
      ASSERT_TRUE(bm.FetchPinned(PageId{0, p}).ok());
    }
  }
  EXPECT_TRUE(Contains(bm, PageId{0, 0}));
  EXPECT_EQ(pinned.value().get(), raw);
  EXPECT_EQ(raw->id.page_no, 0u);

  // The guard's destructor releases the pin; then page 0 is evictable.
  pinned.value().Release();
  EXPECT_EQ(bm.PinCount(PageId{0, 0}), 0u);
  ASSERT_TRUE(bm.FetchPinned(PageId{0, 1}).ok());
  ASSERT_TRUE(bm.FetchPinned(PageId{0, 2}).ok());
  ASSERT_TRUE(bm.FetchPinned(PageId{0, 3}).ok());
  EXPECT_FALSE(Contains(bm, PageId{0, 0}));
}

TEST(BufferManagerTest, AllFramesPinnedReportsResourceExhausted) {
  auto disk = MakeTestDisk({3});
  ConcurrentBufferPool bm(disk.get(), PoolOptions(2));
  auto a = bm.FetchPinned(PageId{0, 0});
  auto b = bm.FetchPinned(PageId{0, 1});
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  auto c = bm.FetchPinned(PageId{0, 2});
  ASSERT_FALSE(c.ok());
  EXPECT_EQ(c.status().code(), StatusCode::kResourceExhausted);
  // Releasing a pin makes the fetch succeed again.
  b.value().Release();
  EXPECT_TRUE(bm.FetchPinned(PageId{0, 2}).ok());
}

TEST(BufferManagerTest, ConfiguredPolicyInstanceIsUsed) {
  auto disk = MakeTestDisk({3});
  ConcurrentBufferPool bm(disk.get(), PoolOptions(2, PolicyKind::kMru),
                          std::make_unique<LruPolicy>());
  EXPECT_STREQ(bm.policy_name(), "LRU");
}

}  // namespace
}  // namespace irbuf::buffer
