#include <gtest/gtest.h>

#include "buffer/lru_policy.h"
#include "buffer/mru_policy.h"
#include "serve/concurrent_buffer_pool.h"
#include "test_disk.h"

namespace irbuf::buffer {
namespace {

using serve::ConcurrentBufferPool;
using serve::PoolOptions;

TEST(LruPolicyTest, EvictsLeastRecentlyUsed) {
  auto disk = MakeTestDisk({4});
  ConcurrentBufferPool bm(disk.get(), PoolOptions(3, PolicyKind::kLru));
  ASSERT_TRUE(bm.FetchPinned(PageId{0, 0}).ok());
  ASSERT_TRUE(bm.FetchPinned(PageId{0, 1}).ok());
  ASSERT_TRUE(bm.FetchPinned(PageId{0, 2}).ok());
  ASSERT_TRUE(bm.FetchPinned(PageId{0, 0}).ok());  // Refresh page 0.
  ASSERT_TRUE(bm.FetchPinned(PageId{0, 3}).ok());  // Evict page 1.
  EXPECT_TRUE(Contains(bm, PageId{0, 0}));
  EXPECT_FALSE(Contains(bm, PageId{0, 1}));
}

TEST(MruPolicyTest, EvictsMostRecentlyUsed) {
  auto disk = MakeTestDisk({4});
  ConcurrentBufferPool bm(disk.get(), PoolOptions(3, PolicyKind::kMru));
  ASSERT_TRUE(bm.FetchPinned(PageId{0, 0}).ok());
  ASSERT_TRUE(bm.FetchPinned(PageId{0, 1}).ok());
  ASSERT_TRUE(bm.FetchPinned(PageId{0, 2}).ok());
  ASSERT_TRUE(bm.FetchPinned(PageId{0, 3}).ok());  // Evict page 2 (MRU).
  EXPECT_TRUE(Contains(bm, PageId{0, 0}));
  EXPECT_TRUE(Contains(bm, PageId{0, 1}));
  EXPECT_FALSE(Contains(bm, PageId{0, 2}));
}

TEST(LruPolicyTest, SequentialRescanWithTightBufferAlwaysMisses) {
  // The classic [Sto81] pathology the paper leans on: repeatedly scanning
  // N+1 pages through an N-page LRU pool yields zero hits.
  auto disk = MakeTestDisk({4});
  ConcurrentBufferPool bm(disk.get(), PoolOptions(3, PolicyKind::kLru));
  for (int round = 0; round < 5; ++round) {
    for (uint32_t p = 0; p < 4; ++p) {
      ASSERT_TRUE(bm.FetchPinned(PageId{0, p}).ok());
    }
  }
  EXPECT_EQ(bm.StatsSnapshot().hits, 0u);
  EXPECT_EQ(bm.StatsSnapshot().misses, 20u);
}

TEST(MruPolicyTest, SequentialRescanWithTightBufferMostlyHits) {
  // MRU is the classic fix for repeated sequential scans [CD85]: all but
  // one resident page survive each rescan.
  auto disk = MakeTestDisk({4});
  ConcurrentBufferPool bm(disk.get(), PoolOptions(3, PolicyKind::kMru));
  for (int round = 0; round < 5; ++round) {
    for (uint32_t p = 0; p < 4; ++p) {
      ASSERT_TRUE(bm.FetchPinned(PageId{0, p}).ok());
    }
  }
  // Round 1: 4 misses. Rounds 2-5: pages 0,1 always resident (2 hits)...
  EXPECT_GT(bm.StatsSnapshot().hits, 7u);
  EXPECT_LT(bm.StatsSnapshot().misses, 13u);
}

TEST(RecencyPoliciesTest, EvictionThenReinsertKeepsStateConsistent) {
  for (bool mru : {false, true}) {
    auto disk = MakeTestDisk({6});
    std::unique_ptr<ReplacementPolicy> policy;
    if (mru) {
      policy = std::make_unique<MruPolicy>();
    } else {
      policy = std::make_unique<LruPolicy>();
    }
    ConcurrentBufferPool bm(disk.get(), PoolOptions(2), std::move(policy));
    // Churn through all pages twice in both directions.
    for (int p = 0; p < 6; ++p) {
      ASSERT_TRUE(bm.FetchPinned(PageId{0, static_cast<uint32_t>(p)}).ok());
    }
    for (int p = 5; p >= 0; --p) {
      ASSERT_TRUE(bm.FetchPinned(PageId{0, static_cast<uint32_t>(p)}).ok());
    }
    EXPECT_EQ(bm.ResidentPageIds().size(), 2u);
  }
}

TEST(RecencyPoliciesTest, ResetAfterFlush) {
  auto disk = MakeTestDisk({3});
  ConcurrentBufferPool bm(disk.get(), PoolOptions(2, PolicyKind::kLru));
  ASSERT_TRUE(bm.FetchPinned(PageId{0, 0}).ok());
  ASSERT_TRUE(bm.FetchPinned(PageId{0, 1}).ok());
  bm.Flush();
  ASSERT_TRUE(bm.FetchPinned(PageId{0, 2}).ok());
  ASSERT_TRUE(bm.FetchPinned(PageId{0, 0}).ok());
  ASSERT_TRUE(bm.FetchPinned(PageId{0, 1}).ok());  // Evicts 2 (LRU).
  EXPECT_FALSE(Contains(bm, PageId{0, 2}));
}

}  // namespace
}  // namespace irbuf::buffer
