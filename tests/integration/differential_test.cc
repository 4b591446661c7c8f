// Differential and metamorphic properties across the whole stack:
// configuration knobs that must not change *answers* (page size,
// replacement policy, pool size, persistence round-trips) are swept and
// checked against each other.

#include <gtest/gtest.h>

#include <cstdio>

#include "../core/test_index.h"
#include "core/filtering_evaluator.h"
#include "index/index_io.h"
#include "storage/codec.h"

namespace irbuf {
namespace {

using core::MakeCollection;
using core::MakeRandomCollection;
using core::TestCollection;

std::vector<core::ScoredDoc> EvaluateWith(const index::InvertedIndex& index,
                                          const core::Query& q,
                                          buffer::PolicyKind policy,
                                          size_t pool_pages,
                                          const core::EvalOptions& eval) {
  serve::ConcurrentBufferPool pool(&index.disk(),
                                   serve::PoolOptions(pool_pages, policy));
  core::FilteringEvaluator evaluator(&index, eval);
  auto result = evaluator.Evaluate(q, &pool);
  EXPECT_TRUE(result.ok());
  return result.value().top_docs;
}

void ExpectSameRanking(const std::vector<core::ScoredDoc>& a,
                       const std::vector<core::ScoredDoc>& b,
                       const char* what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].doc, b[i].doc) << what << " position " << i;
    EXPECT_NEAR(a[i].score, b[i].score, 1e-9) << what;
  }
}

// ---- Page size must not change answers. ----

class PageSizeDifferentialTest
    : public ::testing::TestWithParam<uint32_t> {};

TEST_P(PageSizeDifferentialTest, DfAnswersInvariantToPageSize) {
  uint32_t page_size = GetParam();
  // Same raw lists at the parameterized page size and at a reference
  // page size.
  Pcg32 rng(55);
  std::vector<std::vector<Posting>> lists(6);
  for (auto& list : lists) {
    TruncatedGeometric freq(0.5, 30);
    for (DocId d : SampleDistinct(150, 20 + rng.NextBounded(80), &rng)) {
      list.push_back({d, freq.Sample(&rng)});
    }
  }
  TestCollection reference = MakeCollection(150, 7, lists);
  TestCollection variant = MakeCollection(150, page_size, lists);

  core::Query q;
  for (TermId t = 0; t < 6; ++t) q.AddTerm(t, 1 + t % 2);
  core::EvalOptions tuned;  // Unsafe thresholds ON: the harder case.
  tuned.top_n = 50;
  auto a = EvaluateWith(reference.index, q, buffer::PolicyKind::kLru, 4,
                        tuned);
  auto b = EvaluateWith(variant.index, q, buffer::PolicyKind::kLru, 4,
                        tuned);
  ExpectSameRanking(a, b, "page size");
}

INSTANTIATE_TEST_SUITE_P(Sizes, PageSizeDifferentialTest,
                         ::testing::Values(1, 2, 3, 5, 16, 64, 404));

// ---- Replacement policy and pool size must not change answers. ----

class PolicyDifferentialTest
    : public ::testing::TestWithParam<buffer::PolicyKind> {};

TEST_P(PolicyDifferentialTest, DfAnswersInvariantToPolicyAndPool) {
  TestCollection tc = MakeRandomCollection(66, 250, 9, 4);
  core::Query q;
  for (TermId t = 0; t < 9; ++t) q.AddTerm(t);
  core::EvalOptions tuned;
  tuned.top_n = 30;
  auto reference = EvaluateWith(tc.index, q, buffer::PolicyKind::kLru,
                                tc.index.total_pages() + 1, tuned);
  for (size_t pool : {1ul, 3ul, 17ul, 200ul}) {
    auto variant = EvaluateWith(tc.index, q, GetParam(), pool, tuned);
    ExpectSameRanking(reference, variant, "policy/pool");
  }
}

INSTANTIATE_TEST_SUITE_P(
    Policies, PolicyDifferentialTest,
    ::testing::ValuesIn(buffer::AllPolicyKinds()),
    [](const ::testing::TestParamInfo<buffer::PolicyKind>& info) {
      std::string name = buffer::PolicyKindName(info.param);
      for (char& c : name) {
        if (c == '-') c = '_';
      }
      return name;
    });

// ---- Persistence round-trips preserve evaluation exactly. ----

class PersistenceDifferentialTest
    : public ::testing::TestWithParam<uint64_t> {};

TEST_P(PersistenceDifferentialTest, SaveLoadEvaluatesIdentically) {
  uint64_t seed = GetParam();
  TestCollection tc =
      MakeRandomCollection(seed, 100 + seed * 13 % 150, 7, 3);
  std::string path = std::string(::testing::TempDir()) +
                     "/diff_" + std::to_string(seed) + ".irbf";
  ASSERT_TRUE(index::SaveIndex(tc.index, path).ok());
  auto loaded = index::LoadIndex(path);
  ASSERT_TRUE(loaded.ok());
  std::remove(path.c_str());

  Pcg32 rng(seed);
  core::Query q;
  for (int i = 0; i < 4; ++i) q.AddTerm(rng.NextBounded(7), 1);
  core::EvalOptions tuned;
  tuned.top_n = 25;

  auto a = EvaluateWith(tc.index, q, buffer::PolicyKind::kRap, 8, tuned);
  auto b = EvaluateWith(loaded.value(), q, buffer::PolicyKind::kRap, 8,
                        tuned);
  ExpectSameRanking(a, b, "persistence");

  // I/O accounting must also be identical (same pages, same misses).
  serve::ConcurrentBufferPool p1(&tc.index.disk(), serve::PoolOptions(8));
  serve::ConcurrentBufferPool p2(&loaded.value().disk(), serve::PoolOptions(8));
  core::FilteringEvaluator e1(&tc.index, tuned);
  core::FilteringEvaluator e2(&loaded.value(), tuned);
  auto r1 = e1.Evaluate(q, &p1);
  auto r2 = e2.Evaluate(q, &p2);
  ASSERT_TRUE(r1.ok());
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ(r1.value().disk_reads, r2.value().disk_reads);
  EXPECT_EQ(r1.value().postings_processed,
            r2.value().postings_processed);
}

INSTANTIATE_TEST_SUITE_P(Seeds, PersistenceDifferentialTest,
                         ::testing::Range<uint64_t>(1, 9));

// ---- Codec round-trips for both physical layouts. ----

class CodecOrderDifferentialTest
    : public ::testing::TestWithParam<uint64_t> {};

TEST_P(CodecOrderDifferentialTest, RoundTripsBothLayouts) {
  Pcg32 rng(GetParam() * 31 + 7);
  std::vector<Posting> postings;
  TruncatedGeometric freq(0.5, 40);
  for (DocId d : SampleDistinct(5000, 300, &rng)) {
    postings.push_back({d, freq.Sample(&rng)});
  }
  // Frequency-sorted layout.
  std::vector<Posting> fsorted = postings;
  std::sort(fsorted.begin(), fsorted.end(),
            [](const Posting& a, const Posting& b) {
              if (a.freq != b.freq) return a.freq > b.freq;
              return a.doc < b.doc;
            });
  auto f_decoded = storage::DecodePostings(storage::EncodePostings(fsorted));
  ASSERT_TRUE(f_decoded.ok());
  EXPECT_EQ(f_decoded.value(), fsorted);

  // Document-ordered layout.
  std::vector<Posting> dsorted = postings;
  std::sort(dsorted.begin(), dsorted.end(),
            [](const Posting& a, const Posting& b) {
              return a.doc < b.doc;
            });
  auto d_decoded = storage::DecodePostings(storage::EncodePostings(dsorted));
  ASSERT_TRUE(d_decoded.ok());
  EXPECT_EQ(d_decoded.value(), dsorted);
}

INSTANTIATE_TEST_SUITE_P(Seeds, CodecOrderDifferentialTest,
                         ::testing::Range<uint64_t>(1, 11));

}  // namespace
}  // namespace irbuf
