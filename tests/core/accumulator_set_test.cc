// Unit tests for the open-addressing AccumulatorSet: adversarial DocId
// patterns for the hash/probe machinery, and a reference-model
// differential against std::unordered_map — size() is the paper's
// memory metric, so the table must agree with the map it replaced
// op-for-op, not just at the end.

#include "core/accumulator_set.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <unordered_map>
#include <vector>

#include "util/rng.h"

namespace irbuf::core {
namespace {

TEST(AccumulatorSetTest, FindOnEmptySetIsNull) {
  AccumulatorSet acc;
  EXPECT_EQ(acc.FindOrNull(0), nullptr);
  EXPECT_EQ(acc.FindOrNull(123456), nullptr);
  EXPECT_TRUE(acc.empty());
  EXPECT_EQ(acc.size(), 0u);
}

TEST(AccumulatorSetTest, SentinelIdNeverAliasesEmptySlots) {
  // 0xFFFFFFFF is the empty-slot sentinel. Probing it must miss, not
  // hand back an unoccupied slot's value (doc ids come from gap sums
  // over decoded pages, so a corrupt page can reach this id).
  AccumulatorSet acc;
  EXPECT_EQ(acc.FindOrNull(0xFFFFFFFFu), nullptr);
  for (DocId d = 0; d < 100; ++d) acc.FindOrInsert(d) = 1.0;
  EXPECT_EQ(acc.FindOrNull(0xFFFFFFFFu), nullptr);
  EXPECT_EQ(acc.size(), 100u);
}

TEST(AccumulatorSetTest, MembershipAtWordBoundaries) {
  // The bitmap stores 64 ids per word: ids 63/64 straddle the first word
  // boundary, so an off-by-one in the shift or mask shows up here.
  AccumulatorSet acc;
  for (DocId d : {0u, 63u, 64u, 65u}) acc.Insert(d, 1.0 + d);
  for (DocId d : {0u, 63u, 64u, 65u}) {
    double* a = acc.FindOrNull(d);
    ASSERT_NE(a, nullptr) << d;
    EXPECT_EQ(*a, 1.0 + d);
  }
  for (DocId d : {1u, 62u, 66u, 127u, 128u, 129u}) {
    EXPECT_EQ(acc.FindOrNull(d), nullptr) << d;
  }
  EXPECT_EQ(acc.size(), 4u);
}

TEST(AccumulatorSetTest, IdsPastLargestInsertedIdMiss) {
  AccumulatorSet acc;
  for (DocId d = 0; d < 1000; d += 7) acc.FindOrInsert(d) = 1.0;
  for (DocId d : {995u, 1000u, 1023u, 1024u, 4096u, 1u << 20, 0x00FFFFFFu,
                  0x01000000u, 0xFFFFFFFEu}) {
    EXPECT_EQ(acc.FindOrNull(d), nullptr) << d;
  }
  EXPECT_NE(acc.FindOrNull(994), nullptr);
}

TEST(AccumulatorSetTest, FarIdsBeyondBitmapAreStillFound) {
  // Ids from 2^24 up are kept out of the bitmap (a stray huge id must
  // not allocate hundreds of MB); they live in the table alone.
  AccumulatorSet acc;
  const std::vector<DocId> ids = {3u, 0x00FFFFFFu, 0x01000000u,
                                  0x7FFFFFFFu, 0xFFFFFFFEu, 100u};
  for (size_t i = 0; i < ids.size(); ++i) acc.Insert(ids[i], 0.5 * i);
  for (size_t i = 0; i < ids.size(); ++i) {
    double* a = acc.FindOrNull(ids[i]);
    ASSERT_NE(a, nullptr) << ids[i];
    EXPECT_EQ(*a, 0.5 * i);
  }
  EXPECT_EQ(acc.FindOrNull(0x01000001u), nullptr);
  EXPECT_EQ(acc.FindOrNull(4), nullptr);
  // Far keys switch uncovered ids to the plain probe, where the
  // sentinel must still miss rather than alias an empty slot.
  EXPECT_EQ(acc.FindOrNull(0xFFFFFFFFu), nullptr);
  acc.Clear();
  for (DocId d : ids) EXPECT_EQ(acc.FindOrNull(d), nullptr) << d;
}

TEST(AccumulatorSetTest, FindOrInsertCreatesZeroInitialized) {
  AccumulatorSet acc;
  double& a = acc.FindOrInsert(7);
  EXPECT_EQ(a, 0.0);
  a += 2.5;
  EXPECT_EQ(acc.FindOrInsert(7), 2.5);  // Same slot, not a new one.
  EXPECT_EQ(acc.size(), 1u);
}

TEST(AccumulatorSetTest, InsertKeepsExistingValueLikeEmplace) {
  AccumulatorSet acc;
  acc.Insert(3, 1.5);
  // unordered_map::emplace semantics: a duplicate insert is a no-op
  // that returns the existing accumulator.
  EXPECT_EQ(acc.Insert(3, 99.0), 1.5);
  EXPECT_EQ(acc.size(), 1u);
}

TEST(AccumulatorSetTest, GrowsUnderDenseIds) {
  AccumulatorSet acc;
  for (DocId d = 0; d < 10000; ++d) {
    acc.FindOrInsert(d) = static_cast<double>(d);
  }
  ASSERT_EQ(acc.size(), 10000u);
  for (DocId d = 0; d < 10000; ++d) {
    double* a = acc.FindOrNull(d);
    ASSERT_NE(a, nullptr) << d;
    EXPECT_EQ(*a, static_cast<double>(d));
  }
  EXPECT_EQ(acc.FindOrNull(10000), nullptr);
}

TEST(AccumulatorSetTest, GrowsUnderStrideAliasingIds) {
  // Stride-2^k ids alias catastrophically under mask-the-low-bits
  // hashing; the Fibonacci multiplier must keep probe chains short
  // enough that this completes instantly and correctly.
  for (DocId stride : {256u, 1024u, 65536u}) {
    AccumulatorSet acc;
    for (DocId i = 0; i < 4000; ++i) {
      acc.FindOrInsert(i * stride) = static_cast<double>(i);
    }
    ASSERT_EQ(acc.size(), 4000u) << "stride " << stride;
    for (DocId i = 0; i < 4000; ++i) {
      double* a = acc.FindOrNull(i * stride);
      ASSERT_NE(a, nullptr) << "stride " << stride << " i " << i;
      EXPECT_EQ(*a, static_cast<double>(i));
    }
    EXPECT_EQ(acc.FindOrNull(7), nullptr);
  }
}

TEST(AccumulatorSetTest, RandomIdsSurviveRehashes) {
  Pcg32 rng(5150);
  AccumulatorSet acc;
  std::unordered_map<DocId, double> reference;
  for (int i = 0; i < 20000; ++i) {
    const DocId d = rng.NextU32() & 0x7FFFFFFFu;
    const double w = static_cast<double>(rng.NextBounded(1000)) / 7.0;
    acc.FindOrInsert(d) += w;
    reference[d] += w;
  }
  ASSERT_EQ(acc.size(), reference.size());
  for (const auto& [d, v] : reference) {
    double* a = acc.FindOrNull(d);
    ASSERT_NE(a, nullptr);
    EXPECT_EQ(*a, v);
  }
}

TEST(AccumulatorSetTest, IterationVisitsEveryAccumulatorOnce) {
  AccumulatorSet acc;
  for (DocId d = 0; d < 500; ++d) acc.FindOrInsert(d * 3) = d * 0.5;
  std::vector<std::pair<DocId, double>> seen;
  for (const auto& [doc, val] : acc) seen.emplace_back(doc, val);
  ASSERT_EQ(seen.size(), 500u);
  std::sort(seen.begin(), seen.end());
  for (DocId d = 0; d < 500; ++d) {
    EXPECT_EQ(seen[d].first, d * 3);
    EXPECT_EQ(seen[d].second, d * 0.5);
  }
}

TEST(AccumulatorSetTest, ClearForgetsEveryMember) {
  AccumulatorSet acc;
  std::vector<DocId> ids;
  for (DocId d = 0; d < 5000; d += 3) ids.push_back(d * 11);
  for (DocId d : ids) acc.FindOrInsert(d) = 4.0;
  acc.Clear();
  EXPECT_TRUE(acc.empty());
  for (DocId d : ids) ASSERT_EQ(acc.FindOrNull(d), nullptr) << d;
  // Still a working set afterwards: reinserted keys start from zero and
  // the forgotten ones stay forgotten.
  acc.FindOrInsert(ids[7]) += 1.5;
  acc.FindOrInsert(64) += 2.5;
  EXPECT_EQ(acc.size(), 2u);
  EXPECT_EQ(*acc.FindOrNull(ids[7]), 1.5);
  EXPECT_EQ(*acc.FindOrNull(64), 2.5);
  EXPECT_EQ(acc.FindOrNull(ids[8]), nullptr);
}

TEST(AccumulatorSetTest, ClearKeepsTableUsable) {
  AccumulatorSet acc;
  for (DocId d = 0; d < 1000; ++d) acc.FindOrInsert(d) = 1.0;
  acc.Clear();
  EXPECT_TRUE(acc.empty());
  EXPECT_EQ(acc.begin(), acc.end());
  EXPECT_EQ(acc.FindOrNull(5), nullptr);
  acc.FindOrInsert(5) = 2.0;
  EXPECT_EQ(acc.size(), 1u);
}

// Reuse across queries: a large set, Clear(), then a small set on the
// retained table. Membership, misses and iteration are the small set's
// alone.
TEST(AccumulatorSetTest, SmallSetAfterLargeSetOnRetainedTable) {
  AccumulatorSet acc;
  for (DocId d = 0; d < 20000; ++d) acc.FindOrInsert(d * 7) = 1.0;
  const size_t capacity = acc.capacity();
  acc.Clear();
  EXPECT_EQ(acc.capacity(), capacity);  // Reset, not rebuilt.
  std::vector<DocId> small = {3, 12, 64, 65, 7 * 19999, 140006};
  for (DocId d : small) acc.FindOrInsert(d) += d + 0.5;
  EXPECT_EQ(acc.size(), small.size());
  for (DocId d = 0; d < 20000; ++d) {
    const bool member =
        std::find(small.begin(), small.end(), d * 7) != small.end();
    ASSERT_EQ(acc.FindOrNull(d * 7) != nullptr, member) << d * 7;
  }
  std::vector<DocId> seen;
  for (const auto& [doc, val] : acc) {
    EXPECT_EQ(val, doc + 0.5);
    seen.push_back(doc);
  }
  std::sort(seen.begin(), seen.end());
  std::sort(small.begin(), small.end());
  EXPECT_EQ(seen, small);
}

// Iteration walks the slot list, which every Grow() rewrites: after each
// growth step, and across Clear() on a retained table (including growth
// past the retained capacity), each live key is visited exactly once
// with its value.
TEST(AccumulatorSetTest, IterationVisitsLiveKeysOnceAcrossGrowAndClear) {
  Pcg32 rng(17);
  AccumulatorSet acc;
  std::unordered_map<DocId, double> reference;
  const auto expect_iteration_matches = [&](const char* when) {
    std::unordered_map<DocId, double> seen;
    for (const auto& [doc, val] : acc) {
      ASSERT_TRUE(seen.emplace(doc, val).second) << when << " twice: " << doc;
    }
    ASSERT_EQ(seen, reference) << when;
  };
  for (int n : {3000, 50, 12000}) {
    acc.Clear();
    reference.clear();
    size_t capacity = acc.capacity();
    for (int i = 0; i < n; ++i) {
      const DocId d = rng.NextBounded(1u << 20);
      const double w = 1.0 + rng.NextBounded(8);
      acc.FindOrInsert(d) += w;
      reference[d] += w;
      if (acc.capacity() != capacity) {
        capacity = acc.capacity();
        expect_iteration_matches("after a grow");
      }
    }
    expect_iteration_matches("at the end of a query");
  }
}

TEST(AccumulatorSetTest, ClearForgetsFarIds) {
  AccumulatorSet acc;
  const DocId far = (DocId{1} << 24) + 77;
  acc.FindOrInsert(far) = 2.0;
  acc.FindOrInsert(5) = 1.0;
  acc.Clear();
  EXPECT_EQ(acc.FindOrNull(far), nullptr);
  EXPECT_EQ(acc.FindOrNull(5), nullptr);
  EXPECT_EQ(acc.begin(), acc.end());
  acc.FindOrInsert(far + 1) = 3.0;
  EXPECT_EQ(acc.FindOrNull(far), nullptr);
  ASSERT_NE(acc.FindOrNull(far + 1), nullptr);
  EXPECT_EQ(*acc.FindOrNull(far + 1), 3.0);
  EXPECT_EQ(acc.size(), 1u);
}

// A table far larger than the query that just used it is released on
// Clear(); one sized for its last query is kept. A released set works
// like a new one.
TEST(AccumulatorSetTest, ClearReleasesATableFarLargerThanItsLastQuery) {
  AccumulatorSet acc;
  for (DocId d = 0; d < 40000; ++d) acc.FindOrInsert(d) = 1.0;
  const size_t big = acc.capacity();
  ASSERT_GE(big, size_t{1} << 16);
  acc.Clear();  // The query that used it filled it: kept.
  EXPECT_EQ(acc.capacity(), big);
  for (DocId d = 0; d < 100; ++d) acc.FindOrInsert(d * 3) = 2.0;
  EXPECT_EQ(acc.capacity(), big);
  acc.Clear();  // 100 accumulators in a 2^17-slot table: released.
  EXPECT_EQ(acc.capacity(), 0u);
  EXPECT_TRUE(acc.empty());
  EXPECT_EQ(acc.begin(), acc.end());
  EXPECT_EQ(acc.FindOrNull(3), nullptr);
  EXPECT_EQ(acc.FindOrNull(39999), nullptr);
  for (DocId d = 0; d < 1000; ++d) acc.FindOrInsert(d * 5) += 1.0;
  EXPECT_EQ(acc.size(), 1000u);
  EXPECT_LT(acc.capacity(), big);
  ASSERT_NE(acc.FindOrNull(5), nullptr);
  EXPECT_EQ(*acc.FindOrNull(5), 1.0);
  EXPECT_EQ(acc.FindOrNull(3), nullptr);
  size_t visited = 0;
  for (const auto& entry : acc) visited += entry.second == 1.0 ? 1 : 0;
  EXPECT_EQ(visited, 1000u);
}

// Replays a DF-shaped op trace — the Find / conditional-Insert /
// accumulate mix the filtering evaluator issues, with the skewed doc
// distribution a real posting stream has — against the unordered_map
// the table replaced. size() (the paper's memory metric) and every
// accumulator value must match at each term boundary.
TEST(AccumulatorSetTest, SizeMatchesMapOnRecordedDfTrace) {
  Pcg32 rng(1998);
  AccumulatorSet acc;
  std::unordered_map<DocId, double> reference;
  for (int term = 0; term < 12; ++term) {
    const double wq = 0.25 + 0.125 * term;
    const bool add_only = term % 3 == 2;  // Past the insert threshold.
    const int postings = 200 + static_cast<int>(rng.NextBounded(1800));
    for (int i = 0; i < postings; ++i) {
      // Zipf-ish doc skew: small ids recur across terms, as hot
      // documents do in a real collection.
      DocId d = rng.NextBounded(512);
      if (rng.NextBounded(4) == 0) d = rng.NextBounded(100000);
      const double w = wq * (1 + rng.NextBounded(20));
      if (add_only) {
        if (double* a = acc.FindOrNull(d)) *a += w;
        if (auto it = reference.find(d); it != reference.end()) {
          it->second += w;
        }
      } else {
        acc.FindOrInsert(d) += w;
        reference[d] += w;
      }
    }
    ASSERT_EQ(acc.size(), reference.size()) << "after term " << term;
  }
  for (const auto& [d, v] : reference) {
    double* a = acc.FindOrNull(d);
    ASSERT_NE(a, nullptr);
    EXPECT_EQ(*a, v);
  }
}

// The stream DF's add mode issues at full scale: the insertion threshold
// has cut the candidate set to ~450 of 173,252 documents, and nearly
// every later posting probes FindOrNull for a non-member. Each probe's
// answer is checked against std::unordered_map, over several queries
// that reuse one set through Clear().
TEST(AccumulatorSetTest, AddModeStreamMatchesMap) {
  constexpr uint32_t kNumDocs = 173252;
  Pcg32 rng(13);
  AccumulatorSet acc;
  std::unordered_map<DocId, double> reference;
  uint64_t member_probes = 0;
  uint64_t probes = 0;
  for (int query = 0; query < 6; ++query) {
    acc.Clear();
    reference.clear();
    std::vector<DocId> members;
    for (int i = 0; i < 450; ++i) {
      const DocId d = rng.NextBounded(kNumDocs);
      const double w = 1.0 + rng.NextBounded(64) / 8.0;
      acc.FindOrInsert(d) += w;
      reference[d] += w;
      members.push_back(d);
    }
    ASSERT_EQ(acc.size(), reference.size());
    for (int i = 0; i < 36000; ++i) {
      // ~3% of add-mode postings land on a candidate.
      const DocId d = rng.NextBounded(100) < 3
                          ? members[rng.NextBounded(450)]
                          : rng.NextBounded(kNumDocs);
      const double w = 0.25 * (1 + rng.NextBounded(8));
      double* a = acc.FindOrNull(d);
      auto it = reference.find(d);
      ++probes;
      ASSERT_EQ(a != nullptr, it != reference.end())
          << "query " << query << " doc " << d;
      if (a == nullptr) continue;
      ++member_probes;
      *a += w;
      it->second += w;
      ASSERT_EQ(*a, it->second);
    }
    ASSERT_EQ(acc.size(), reference.size());
    size_t visited = 0;
    for (const auto& [doc, val] : acc) {
      ++visited;
      auto it = reference.find(doc);
      ASSERT_NE(it, reference.end()) << doc;
      EXPECT_EQ(val, it->second);
    }
    EXPECT_EQ(visited, reference.size());
  }
  // Most probes are non-members, the shape the bitmap is built for.
  EXPECT_LT(member_probes * 10, probes);
  EXPECT_GT(member_probes, 0u);
}

// Regression pin for the amortized-alloc contract on
// AccumulatorSet::Grow (the analyzer trusts the annotation; this test
// keeps it honest): doubling growth means at most ~log2(N) + 1
// reallocations over N inserts, so the per-posting cost inside the
// evaluator hot loops stays O(1) amortized. A switch to, say,
// fixed-increment growth would blow the bound immediately.
TEST(AccumulatorSetTest, GrowthIsAmortizedDoubling) {
  AccumulatorSet acc;
  constexpr int kInserts = 100000;
  int reallocations = 0;
  const double* watched = nullptr;
  for (int i = 0; i < kInserts; ++i) {
    acc.Insert(static_cast<DocId>(i), 1.0);
    const double* now = acc.FindOrNull(0);
    ASSERT_NE(now, nullptr);
    if (now != watched) {
      ++reallocations;
      watched = now;
    }
  }
  // log2(100000) ~= 17; the first observation also counts as a
  // "change" from nullptr. Leave a little slack, but far below any
  // linear-growth regime (which would be in the thousands).
  EXPECT_LE(reallocations, 20);
}

}  // namespace
}  // namespace irbuf::core
