// Property tests over the evaluator's execution trace: accounting
// identities that must hold for every query, corpus, pool size and
// algorithm variant.

#include <gtest/gtest.h>

#include "core/filtering_evaluator.h"
#include "test_index.h"

namespace irbuf::core {
namespace {

struct TraceCase {
  uint64_t seed;
  bool buffer_aware;
  size_t pool_pages;
};

class TraceInvariantsTest : public ::testing::TestWithParam<TraceCase> {};

TEST_P(TraceInvariantsTest, AccountingIdentitiesHold) {
  const TraceCase& param = GetParam();
  TestCollection tc =
      MakeRandomCollection(param.seed, 200, 10, 4);
  Pcg32 rng(param.seed * 3 + 1);
  Query q;
  for (int i = 0; i < 6; ++i) {
    q.AddTerm(rng.NextBounded(10), 1 + rng.NextBounded(3));
  }

  EvalOptions options;  // Tuned constants, trace on.
  options.buffer_aware = param.buffer_aware;
  FilteringEvaluator evaluator(&tc.index, options);
  serve::ConcurrentBufferPool pool(&tc.index.disk(),
                                   serve::PoolOptions(param.pool_pages));
  auto result = evaluator.Evaluate(q, &pool);
  ASSERT_TRUE(result.ok());
  const EvalResult& er = result.value();

  // One trace row per unique query term.
  EXPECT_EQ(er.trace.size(), q.size());

  uint64_t sum_reads = 0, sum_processed = 0, sum_postings = 0;
  uint32_t skipped = 0;
  for (const TermTrace& t : er.trace) {
    const index::TermInfo& info = tc.index.lexicon().info(t.term);
    EXPECT_EQ(t.total_pages, info.pages);
    EXPECT_LE(t.pages_read, t.pages_processed);
    EXPECT_LE(t.pages_processed, t.total_pages);
    // Thresholds are consistent: f_ins >= f_add >= 0.
    EXPECT_GE(t.f_ins, t.f_add);
    EXPECT_GE(t.f_add, 0.0);
    // Smax never decreases while a term is processed.
    EXPECT_GE(t.smax_after, t.smax_before);
    if (t.skipped) {
      ++skipped;
      EXPECT_EQ(t.pages_processed, 0u);
      EXPECT_EQ(t.postings_processed, 0u);
      // A skip requires fmax <= f_add.
      EXPECT_LE(static_cast<double>(info.fmax), t.f_add);
    } else {
      EXPECT_GE(t.pages_processed, 1u);
      EXPECT_GE(t.postings_processed, 1u);
      // Postings processed can't exceed the pages' capacity.
      EXPECT_LE(t.postings_processed,
                static_cast<uint64_t>(t.pages_processed) * 4);
    }
    sum_reads += t.pages_read;
    sum_processed += t.pages_processed;
    sum_postings += t.postings_processed;
  }
  EXPECT_EQ(er.disk_reads, sum_reads);
  EXPECT_EQ(er.pages_processed, sum_processed);
  EXPECT_EQ(er.postings_processed, sum_postings);
  EXPECT_EQ(er.terms_skipped, skipped);
  // Pool-level identity: evaluator reads == pool misses.
  EXPECT_EQ(er.disk_reads, pool.StatsSnapshot().misses);
  // Answers are sorted by score descending (doc ascending on ties).
  for (size_t i = 1; i < er.top_docs.size(); ++i) {
    if (er.top_docs[i - 1].score == er.top_docs[i].score) {
      EXPECT_LT(er.top_docs[i - 1].doc, er.top_docs[i].doc);
    } else {
      EXPECT_GT(er.top_docs[i - 1].score, er.top_docs[i].score);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, TraceInvariantsTest,
    ::testing::Values(TraceCase{1, false, 1}, TraceCase{1, true, 1},
                      TraceCase{2, false, 8}, TraceCase{2, true, 8},
                      TraceCase{3, false, 64}, TraceCase{3, true, 64},
                      TraceCase{4, false, 1000}, TraceCase{4, true, 1000},
                      TraceCase{5, false, 16}, TraceCase{5, true, 16}),
    [](const ::testing::TestParamInfo<TraceCase>& info) {
      return std::string(info.param.buffer_aware ? "BAF" : "DF") + "_s" +
             std::to_string(info.param.seed) + "_p" +
             std::to_string(info.param.pool_pages);
    });

}  // namespace
}  // namespace irbuf::core
