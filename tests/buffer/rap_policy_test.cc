#include "buffer/rap_policy.h"

#include <gtest/gtest.h>

#include <vector>

#include "serve/concurrent_buffer_pool.h"
#include "test_disk.h"
#include "util/rng.h"

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

/// A frame table the differential test edits directly, standing in for
/// the pool: Meta() is what the policy reads, exactly as the pool sets it
/// before OnInsert and clears it after OnEvict.
class StubDirectory final : public FrameDirectory {
 public:
  explicit StubDirectory(size_t capacity) : metas_(capacity) {}
  const FrameMeta& Meta(FrameId frame) const override {
    return metas_[frame];
  }
  size_t capacity() const override { return metas_.size(); }

  std::vector<FrameMeta> metas_;
};

/// The full scan RapPolicy::ChooseVictim ran before it cached keys:
/// every resident frame's value recomputed through the directory and the
/// context on each call. The reference the cached scan must match.
FrameId OracleVictim(const StubDirectory& directory,
                     const QueryContext* context) {
  FrameId victim = kInvalidFrame;
  double victim_value = 0.0;
  PageId victim_page{};
  for (FrameId f = 0; f < directory.capacity(); ++f) {
    const FrameMeta& meta = directory.Meta(f);
    if (!meta.occupied) continue;
    const double wq =
        context == nullptr ? 0.0 : context->WeightOf(meta.page.term);
    const double value = meta.max_weight * wq;
    bool better;
    if (victim == kInvalidFrame) {
      better = true;
    } else if (value != victim_value) {
      better = value < victim_value;
    } else if (meta.page.term == victim_page.term) {
      better = meta.page.page_no > victim_page.page_no;
    } else {
      better = meta.page.page_no > victim_page.page_no ||
               (meta.page.page_no == victim_page.page_no &&
                meta.page.term > victim_page.term);
    }
    if (better) {
      victim = f;
      victim_value = value;
      victim_page = meta.page;
    }
  }
  return victim;
}

// Seeded random OnInsert/OnHit/OnEvict/SetQueryContext/Reset sequences,
// driven through a stub frame table with the pool's protocol: every
// ChooseVictim of the cached policy must name the oracle's frame. The
// inputs are built for ties: per-page weights come from three levels
// (so one term holds equal max_weight pages), some contexts drop terms
// (value 0.0) or give several terms one weight, the null context zeroes
// every value, and contexts switch between evictions.
TEST(RapPolicyTest, CachedVictimsMatchFullScanOracle) {
  constexpr TermId kTerms = 6;
  constexpr uint32_t kPagesPerTerm = 10;
  const double kLevels[] = {1.5, 2.0, 4.0};
  std::vector<QueryContext> contexts(5);
  contexts[0].SetWeight(0, 1.0);
  contexts[0].SetWeight(1, 1.0);
  contexts[0].SetWeight(2, 1.0);
  contexts[1].SetWeight(0, 2.0);  // Terms 1-5 dropped: value 0.
  contexts[2].SetWeight(3, 0.5);
  contexts[2].SetWeight(4, 3.0);
  contexts[2].SetWeight(5, 0.5);
  // contexts[3] is empty: every page of every term is worth 0.
  for (TermId t = 0; t < kTerms; ++t) contexts[4].SetWeight(t, 1.0 + t % 2);

  uint64_t choices = 0;
  for (uint64_t seed = 1; seed <= 60; ++seed) {
    Pcg32 rng(seed);
    const size_t capacity = 1 + rng.NextBounded(24);
    std::vector<double> page_weight(kTerms * kPagesPerTerm);
    for (double& w : page_weight) w = kLevels[rng.NextBounded(3)];
    StubDirectory directory(capacity);
    RapPolicy policy;
    policy.Attach(&directory);
    const QueryContext* context = nullptr;
    std::vector<bool> resident_page(page_weight.size(), false);

    const auto occupy = [&](FrameId frame) {
      uint32_t key = rng.NextBounded(static_cast<uint32_t>(page_weight.size()));
      while (resident_page[key]) key = (key + 1) % page_weight.size();
      resident_page[key] = true;
      FrameMeta& meta = directory.metas_[frame];
      meta.page = PageId{key / kPagesPerTerm, key % kPagesPerTerm};
      meta.max_weight = page_weight[key];
      meta.occupied = true;
      policy.OnInsert(frame);
    };
    const auto evict = [&](FrameId frame) {
      policy.OnEvict(frame);
      FrameMeta& meta = directory.metas_[frame];
      resident_page[meta.page.term * kPagesPerTerm + meta.page.page_no] =
          false;
      meta.occupied = false;
    };
    const auto occupied_frames = [&] {
      std::vector<FrameId> out;
      for (FrameId f = 0; f < capacity; ++f) {
        if (directory.metas_[f].occupied) out.push_back(f);
      }
      return out;
    };

    for (int op = 0; op < 300; ++op) {
      const uint32_t dice = rng.NextBounded(100);
      const std::vector<FrameId> occupied = occupied_frames();
      if (dice < 55) {
        // A miss: a free frame, or the policy's victim once full.
        FrameId frame = kInvalidFrame;
        for (FrameId f = 0; f < capacity && frame == kInvalidFrame; ++f) {
          if (!directory.metas_[f].occupied) frame = f;
        }
        if (frame == kInvalidFrame) {
          frame = policy.ChooseVictim();
          ASSERT_EQ(frame, OracleVictim(directory, context))
              << "seed " << seed << " op " << op;
          ++choices;
          evict(frame);
        }
        occupy(frame);
      } else if (dice < 70) {
        if (!occupied.empty()) {
          policy.OnHit(occupied[rng.NextBounded(
              static_cast<uint32_t>(occupied.size()))]);
        }
      } else if (dice < 78) {
        // The pool's pinned-victim fallback evicts a frame the policy
        // did not choose.
        if (!occupied.empty()) {
          evict(occupied[rng.NextBounded(
              static_cast<uint32_t>(occupied.size()))]);
        }
      } else if (dice < 93) {
        const uint32_t pick = rng.NextBounded(6);
        context = pick == 5 ? nullptr : &contexts[pick];
        policy.SetQueryContext(context);
      } else if (dice < 95) {
        for (FrameId f : occupied) {
          const FrameMeta& meta = directory.metas_[f];
          resident_page[meta.page.term * kPagesPerTerm + meta.page.page_no] =
              false;
          directory.metas_[f].occupied = false;
        }
        policy.Reset();
      } else {
        // A victim query on a pool that is not full (or empty) must
        // still agree — kInvalidFrame on both sides when nothing is
        // resident.
        ASSERT_EQ(policy.ChooseVictim(), OracleVictim(directory, context))
            << "seed " << seed << " op " << op;
        ++choices;
      }
    }
  }
  EXPECT_GT(choices, 2000u);
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
