#include <gtest/gtest.h>

#include "core/filtering_evaluator.h"
#include "test_index.h"

namespace irbuf::core {
namespace {

EvalOptions FullEval() {
  EvalOptions options;
  options.c_ins = 0.0;
  options.c_add = 0.0;
  options.top_n = 100;
  return options;
}

TEST(DfEvaluatorTest, FullEvaluationMatchesBruteForce) {
  TestCollection tc = MakeRandomCollection(11, 60, 8, 4);
  Query q;
  q.AddTerm(0, 1);
  q.AddTerm(3, 2);
  q.AddTerm(5, 1);
  FilteringEvaluator evaluator(&tc.index, FullEval());
  auto pool = MakeBigPool(tc);
  auto result = evaluator.Evaluate(q, &pool);
  ASSERT_TRUE(result.ok());

  auto expected = BruteForceRanking(tc, q, 100);
  ASSERT_EQ(result.value().top_docs.size(), expected.size());
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(result.value().top_docs[i].doc, expected[i].doc) << i;
    EXPECT_NEAR(result.value().top_docs[i].score, expected[i].score, 1e-9);
  }
}

// Parameterized sweep: full evaluation equals brute force on many random
// collections and queries (the safe-baseline invariant).
class DfGroundTruthTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(DfGroundTruthTest, FullEvalEqualsBruteForce) {
  uint64_t seed = GetParam();
  TestCollection tc =
      MakeRandomCollection(seed, 40 + seed % 50, 6 + seed % 5, 3);
  Pcg32 rng(seed * 977);
  Query q;
  size_t num_terms = tc.lists.size();
  for (int i = 0; i < 4; ++i) {
    q.AddTerm(rng.NextBounded(static_cast<uint32_t>(num_terms)),
              1 + rng.NextBounded(3));
  }
  FilteringEvaluator evaluator(&tc.index, FullEval());
  auto pool = MakeBigPool(tc);
  auto result = evaluator.Evaluate(q, &pool);
  ASSERT_TRUE(result.ok());
  auto expected = BruteForceRanking(tc, q, 100);
  ASSERT_EQ(result.value().top_docs.size(), expected.size());
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(result.value().top_docs[i].doc, expected[i].doc)
        << "seed " << seed << " position " << i;
    EXPECT_NEAR(result.value().top_docs[i].score, expected[i].score, 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DfGroundTruthTest,
                         ::testing::Range<uint64_t>(1, 21));

TEST(DfEvaluatorTest, ProcessesTermsInDecreasingIdfOrder) {
  // Three terms with distinct list lengths -> distinct idfs.
  TestCollection tc = MakeCollection(
      64, 2,
      {
          {{0, 1}, {1, 1}, {2, 1}, {3, 1}, {4, 1}, {5, 1}, {6, 1}, {7, 1}},
          {{0, 2}, {1, 1}},
          {{0, 3}, {1, 2}, {2, 1}, {3, 1}},
      });
  Query q;
  q.AddTerm(0);
  q.AddTerm(1);
  q.AddTerm(2);
  FilteringEvaluator evaluator(&tc.index, FullEval());
  auto pool = MakeBigPool(tc);
  auto result = evaluator.Evaluate(q, &pool);
  ASSERT_TRUE(result.ok());
  const auto& trace = result.value().trace;
  ASSERT_EQ(trace.size(), 3u);
  // Shortest list (highest idf) first: term 1, then 2, then 0.
  EXPECT_EQ(trace[0].term, 1u);
  EXPECT_EQ(trace[1].term, 2u);
  EXPECT_EQ(trace[2].term, 0u);
  EXPECT_GE(trace[0].idf, trace[1].idf);
  EXPECT_GE(trace[1].idf, trace[2].idf);
}

TEST(DfEvaluatorTest, SmaxIsMonotoneAcrossTrace) {
  TestCollection tc = MakeRandomCollection(5, 80, 10, 3);
  Query q;
  for (TermId t = 0; t < 6; ++t) q.AddTerm(t);
  EvalOptions options;  // Tuned constants.
  FilteringEvaluator evaluator(&tc.index, options);
  auto pool = MakeBigPool(tc);
  auto result = evaluator.Evaluate(q, &pool);
  ASSERT_TRUE(result.ok());
  double last = 0.0;
  for (const TermTrace& t : result.value().trace) {
    EXPECT_GE(t.smax_before, last);
    EXPECT_GE(t.smax_after, t.smax_before);
    last = t.smax_after;
  }
}

TEST(DfEvaluatorTest, AdditionThresholdTruncatesLongLists) {
  // One short high-idf booster term, then a long list whose tail is all
  // freq 1: once Smax is high, the long list's tail must not be read.
  std::vector<Posting> booster = {{0, 30}};
  std::vector<Posting> long_list;
  long_list.push_back({0, 25});  // Keeps Smax growing on doc 0.
  for (DocId d = 1; d <= 40; ++d) long_list.push_back({d, 1});
  TestCollection tc =
      MakeCollection(1024, 4, {booster, long_list});

  Query q;
  q.AddTerm(0, 5);
  q.AddTerm(1, 1);
  EvalOptions options;
  options.c_ins = 0.07;
  options.c_add = 0.002;
  FilteringEvaluator evaluator(&tc.index, options);
  auto pool = MakeBigPool(tc);
  auto result = evaluator.Evaluate(q, &pool);
  ASSERT_TRUE(result.ok());
  const auto& trace = result.value().trace;
  ASSERT_EQ(trace.size(), 2u);
  // Booster (1 page) processed first (higher idf), then the long list
  // stops early: strictly fewer pages than its total.
  EXPECT_EQ(trace[1].term, 1u);
  EXPECT_GT(trace[1].f_add, 1.0);
  EXPECT_LT(trace[1].pages_processed, trace[1].total_pages);
  EXPECT_LT(result.value().postings_processed, 1u + long_list.size());
}

TEST(DfEvaluatorTest, FmaxSkipAvoidsAllReads) {
  // Second term's fmax is 1; with Smax already large its f_add exceeds 1
  // and step 4b skips the list without touching the disk.
  std::vector<Posting> booster = {{0, 50}};
  std::vector<Posting> weak;
  for (DocId d = 10; d < 30; ++d) weak.push_back({d, 1});
  TestCollection tc = MakeCollection(1024, 4, {booster, weak});

  Query q;
  q.AddTerm(0, 5);
  q.AddTerm(1, 1);
  EvalOptions options;
  options.c_ins = 0.2;
  options.c_add = 0.02;
  FilteringEvaluator evaluator(&tc.index, options);
  auto pool = MakeBigPool(tc);

  auto result = evaluator.Evaluate(q, &pool);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result.value().trace.size(), 2u);
  const TermTrace& weak_trace = result.value().trace[1];
  EXPECT_EQ(weak_trace.term, 1u);
  EXPECT_TRUE(weak_trace.skipped);
  EXPECT_EQ(weak_trace.pages_read, 0u);
  EXPECT_EQ(weak_trace.pages_processed, 0u);
  EXPECT_EQ(result.value().terms_skipped, 1u);
}

TEST(DfEvaluatorTest, InsertionThresholdShrinksCandidateSet) {
  TestCollection tc = MakeRandomCollection(17, 200, 6, 8);
  Query q;
  for (TermId t = 0; t < 6; ++t) q.AddTerm(t);

  auto pool1 = MakeBigPool(tc);
  FilteringEvaluator full(&tc.index, FullEval());
  auto full_result = full.Evaluate(q, &pool1);
  ASSERT_TRUE(full_result.ok());

  EvalOptions tuned;
  tuned.c_ins = 0.07;
  tuned.c_add = 0.002;
  auto pool2 = MakeBigPool(tc);
  FilteringEvaluator filtered(&tc.index, tuned);
  auto filtered_result = filtered.Evaluate(q, &pool2);
  ASSERT_TRUE(filtered_result.ok());

  EXPECT_LT(filtered_result.value().accumulators,
            full_result.value().accumulators);
  EXPECT_LE(filtered_result.value().postings_processed,
            full_result.value().postings_processed);
}

TEST(DfEvaluatorTest, EmptyQueryYieldsEmptyResult) {
  TestCollection tc = MakeRandomCollection(3, 20, 3, 4);
  FilteringEvaluator evaluator(&tc.index, FullEval());
  auto pool = MakeBigPool(tc);
  auto result = evaluator.Evaluate(Query{}, &pool);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result.value().top_docs.empty());
  EXPECT_EQ(result.value().disk_reads, 0u);
}

TEST(DfEvaluatorTest, TraceCanBeDisabled) {
  TestCollection tc = MakeRandomCollection(3, 20, 3, 4);
  EvalOptions options = FullEval();
  options.record_trace = false;
  FilteringEvaluator evaluator(&tc.index, options);
  auto pool = MakeBigPool(tc);
  Query q;
  q.AddTerm(0);
  auto result = evaluator.Evaluate(q, &pool);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result.value().trace.empty());
  EXPECT_GT(result.value().disk_reads, 0u);
}

TEST(DfEvaluatorTest, DiskReadsMatchBufferMisses) {
  TestCollection tc = MakeRandomCollection(23, 100, 5, 4);
  Query q;
  for (TermId t = 0; t < 5; ++t) q.AddTerm(t);
  serve::ConcurrentBufferPool pool(&tc.index.disk(), serve::PoolOptions(3));
  FilteringEvaluator evaluator(&tc.index, FullEval());
  auto result = evaluator.Evaluate(q, &pool);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value().disk_reads, pool.StatsSnapshot().misses);
  EXPECT_EQ(result.value().pages_processed, pool.StatsSnapshot().fetches);
}

}  // namespace
}  // namespace irbuf::core
