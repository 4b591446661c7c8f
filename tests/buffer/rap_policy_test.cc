#include "buffer/rap_policy.h"

#include <gtest/gtest.h>

#include "serve/concurrent_buffer_pool.h"
#include "test_disk.h"

namespace irbuf::buffer {
namespace {

using serve::ConcurrentBufferPool;
using serve::PoolOptions;

QueryContext ContextFor(std::initializer_list<std::pair<TermId, double>> ws) {
  QueryContext ctx;
  for (auto& [term, w] : ws) ctx.SetWeight(term, w);
  return ctx;
}

TEST(RapPolicyTest, EvictsLowestReplacementValue) {
  // Term 0 pages have stored weights 100, 99, ...; term 1: 200, 199, ...
  auto disk = MakeTestDisk({3, 3});
  ConcurrentBufferPool bm(disk.get(), PoolOptions(3, PolicyKind::kRap));
  bm.SetQueryContext(ContextFor({{0, 1.0}, {1, 1.0}}));

  ASSERT_TRUE(bm.FetchPinned(PageId{0, 0}).ok());  // Value 100.
  ASSERT_TRUE(bm.FetchPinned(PageId{1, 0}).ok());  // Value 200.
  ASSERT_TRUE(bm.FetchPinned(PageId{1, 1}).ok());  // Value 199.
  ASSERT_TRUE(bm.FetchPinned(PageId{1, 2}).ok());  // Evicts (0,0): lowest.
  EXPECT_FALSE(Contains(bm, PageId{0, 0}));
  EXPECT_TRUE(Contains(bm, PageId{1, 0}));
}

TEST(RapPolicyTest, QueryWeightScalesPageValue) {
  auto disk = MakeTestDisk({3, 3});
  ConcurrentBufferPool bm(disk.get(), PoolOptions(3, PolicyKind::kRap));
  // Term 0 is weighted much higher than term 1, inverting the raw stored
  // weights (Equation 6: value = max-weight * w_{q,t}).
  bm.SetQueryContext(ContextFor({{0, 10.0}, {1, 1.0}}));
  ASSERT_TRUE(bm.FetchPinned(PageId{0, 0}).ok());  // Value 1000.
  ASSERT_TRUE(bm.FetchPinned(PageId{1, 0}).ok());  // Value 200.
  ASSERT_TRUE(bm.FetchPinned(PageId{0, 1}).ok());  // Value 990.
  ASSERT_TRUE(bm.FetchPinned(PageId{0, 2}).ok());  // Evicts (1,0).
  EXPECT_FALSE(Contains(bm, PageId{1, 0}));
}

TEST(RapPolicyTest, DroppedTermPagesEvictedFirst) {
  // Section 3.3 example 2: pages of terms removed during refinement have
  // w_{q,t} = 0 and go first, even if their stored weights are huge.
  auto disk = MakeTestDisk({3, 3});
  ConcurrentBufferPool bm(disk.get(), PoolOptions(4, PolicyKind::kRap));
  bm.SetQueryContext(ContextFor({{0, 1.0}, {1, 1.0}}));
  ASSERT_TRUE(bm.FetchPinned(PageId{1, 0}).ok());
  ASSERT_TRUE(bm.FetchPinned(PageId{1, 1}).ok());
  ASSERT_TRUE(bm.FetchPinned(PageId{0, 0}).ok());
  ASSERT_TRUE(bm.FetchPinned(PageId{0, 1}).ok());

  // Refined query: term 1 dropped.
  bm.SetQueryContext(ContextFor({{0, 1.0}}));
  ASSERT_TRUE(bm.FetchPinned(PageId{0, 2}).ok());  // Needs an eviction.
  // A term-1 page must have gone, not a term-0 page.
  EXPECT_TRUE(Contains(bm, PageId{0, 0}));
  EXPECT_TRUE(Contains(bm, PageId{0, 1}));
  EXPECT_EQ(bm.ResidentPages(1), 1u);
}

TEST(RapPolicyTest, TailEvictedBeforeHead) {
  // Among equal (zero) values, the tail of the list goes before the head.
  auto disk = MakeTestDisk({3});
  ConcurrentBufferPool bm(disk.get(), PoolOptions(2, PolicyKind::kRap));
  bm.SetQueryContext(ContextFor({{0, 1.0}}));
  ASSERT_TRUE(bm.FetchPinned(PageId{0, 0}).ok());
  ASSERT_TRUE(bm.FetchPinned(PageId{0, 1}).ok());
  // Term 0 dropped: both resident pages now value 0.
  bm.SetQueryContext(QueryContext{});
  ASSERT_TRUE(bm.FetchPinned(PageId{0, 2}).ok());
  EXPECT_TRUE(Contains(bm, PageId{0, 0}));   // Head kept.
  EXPECT_FALSE(Contains(bm, PageId{0, 1}));  // Tail evicted.
}

TEST(RapPolicyTest, FirstPagesSurviveWithinOneTerm) {
  // Section 3.3 example 1: within one queried term, the first page (the
  // highest stored weight) should be the one retained.
  auto disk = MakeTestDisk({4});
  ConcurrentBufferPool bm(disk.get(), PoolOptions(2, PolicyKind::kRap));
  bm.SetQueryContext(ContextFor({{0, 2.0}}));
  ASSERT_TRUE(bm.FetchPinned(PageId{0, 0}).ok());
  ASSERT_TRUE(bm.FetchPinned(PageId{0, 1}).ok());
  ASSERT_TRUE(bm.FetchPinned(PageId{0, 2}).ok());  // Evicts page 1.
  ASSERT_TRUE(bm.FetchPinned(PageId{0, 3}).ok());  // Evicts page 2.
  EXPECT_TRUE(Contains(bm, PageId{0, 0}));
  EXPECT_TRUE(Contains(bm, PageId{0, 3}));
}

TEST(RapPolicyTest, ValueOfReflectsContext) {
  auto disk = MakeTestDisk({1});
  auto policy = std::make_unique<RapPolicy>();
  RapPolicy* rap = policy.get();
  ConcurrentBufferPool bm(disk.get(), PoolOptions(1), std::move(policy));
  ASSERT_TRUE(bm.FetchPinned(PageId{0, 0}).ok());
  // No context yet: value is 0.
  EXPECT_DOUBLE_EQ(rap->ValueOf(0), 0.0);
  bm.SetQueryContext(ContextFor({{0, 3.0}}));
  EXPECT_DOUBLE_EQ(rap->ValueOf(0), 300.0);
}

TEST(QueryContextTest, MergeMaxKeepsHighestWeight) {
  QueryContext a = ContextFor({{1, 2.0}, {2, 5.0}});
  QueryContext b = ContextFor({{2, 3.0}, {3, 7.0}});
  a.MergeMax(b);
  EXPECT_DOUBLE_EQ(a.WeightOf(1), 2.0);
  EXPECT_DOUBLE_EQ(a.WeightOf(2), 5.0);
  EXPECT_DOUBLE_EQ(a.WeightOf(3), 7.0);
  EXPECT_DOUBLE_EQ(a.WeightOf(9), 0.0);
}

}  // namespace
}  // namespace irbuf::buffer
