#include "core/quit_continue_evaluator.h"

#include <gtest/gtest.h>

#include "obs/query_tracer.h"

#include "test_index.h"

namespace irbuf::core {
namespace {

TEST(QuitContinueTest, UnlimitedBudgetMatchesBruteForce) {
  TestCollection tc = MakeRandomCollection(77, 80, 8, 4);
  Query q;
  q.AddTerm(0, 1);
  q.AddTerm(2, 2);
  q.AddTerm(5, 1);
  QuitContinueOptions options;
  options.accumulator_limit = 1000000;
  options.top_n = 100;
  QuitContinueEvaluator evaluator(&tc.index, options);
  auto pool = MakeBigPool(tc);
  auto result = evaluator.Evaluate(q, &pool);
  ASSERT_TRUE(result.ok());
  auto expected = BruteForceRanking(tc, q, 100);
  ASSERT_EQ(result.value().top_docs.size(), expected.size());
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(result.value().top_docs[i].doc, expected[i].doc);
    EXPECT_NEAR(result.value().top_docs[i].score, expected[i].score, 1e-9);
  }
}

TEST(QuitContinueTest, LimitBoundsAccumulators) {
  TestCollection tc = MakeRandomCollection(78, 200, 8, 4);
  Query q;
  for (TermId t = 0; t < 8; ++t) q.AddTerm(t);
  for (LimitMode mode : {LimitMode::kQuit, LimitMode::kContinue}) {
    QuitContinueOptions options;
    options.accumulator_limit = 25;
    options.mode = mode;
    QuitContinueEvaluator evaluator(&tc.index, options);
    auto pool = MakeBigPool(tc);
    auto result = evaluator.Evaluate(q, &pool);
    ASSERT_TRUE(result.ok());
    EXPECT_LE(result.value().accumulators, 25u);
  }
}

TEST(QuitContinueTest, QuitStopsReadingButContinueDoesNot) {
  TestCollection tc = MakeRandomCollection(79, 300, 10, 4);
  Query q;
  for (TermId t = 0; t < 10; ++t) q.AddTerm(t);

  QuitContinueOptions quit;
  quit.accumulator_limit = 10;
  quit.mode = LimitMode::kQuit;
  QuitContinueOptions cont = quit;
  cont.mode = LimitMode::kContinue;

  auto pool1 = MakeBigPool(tc);
  auto pool2 = MakeBigPool(tc);
  auto rquit = QuitContinueEvaluator(&tc.index, quit).Evaluate(q, &pool1);
  auto rcont = QuitContinueEvaluator(&tc.index, cont).Evaluate(q, &pool2);
  ASSERT_TRUE(rquit.ok());
  ASSERT_TRUE(rcont.ok());
  // Quit aborts as soon as the budget fills: far less I/O.
  EXPECT_LT(rquit.value().pages_processed,
            rcont.value().pages_processed);
  // Continue reads every page of every list.
  uint64_t all_pages = 0;
  for (const QueryTerm& qt : q.terms()) {
    all_pages += tc.index.lexicon().info(qt.term).pages;
  }
  EXPECT_EQ(rcont.value().pages_processed, all_pages);
}

TEST(QuitContinueTest, ContinueScoresExistingCandidatesFully) {
  // One doc appears in both lists; with limit 1 and the high-idf list
  // first, that doc's accumulator must still receive the second term's
  // contribution under Continue.
  TestCollection tc = MakeCollection(
      64, 4, {{{7, 5}}, {{3, 2}, {7, 4}, {9, 1}}});
  Query q;
  q.AddTerm(0, 1);  // idf 6: processed first, inserts doc 7.
  q.AddTerm(1, 1);
  QuitContinueOptions options;
  options.accumulator_limit = 1;
  options.mode = LimitMode::kContinue;
  QuitContinueEvaluator evaluator(&tc.index, options);
  auto pool = MakeBigPool(tc);
  auto result = evaluator.Evaluate(q, &pool);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result.value().top_docs.size(), 1u);
  EXPECT_EQ(result.value().top_docs[0].doc, 7u);
  // Score includes both terms: (5*idf0)*(1*idf0) + (4*idf1)*(1*idf1),
  // normalized by W_7.
  const double idf0 = tc.index.lexicon().info(0).idf;
  const double idf1 = tc.index.lexicon().info(1).idf;
  const double expected =
      (5 * idf0 * idf0 + 4 * idf1 * idf1) / tc.index.doc_norm(7);
  EXPECT_NEAR(result.value().top_docs[0].score, expected, 1e-9);
}

TEST(QuitContinueTest, WorksOnDocumentOrderedIndexes) {
  index::IndexBuilderOptions builder_options;
  builder_options.page_size = 3;
  builder_options.num_docs = 100;
  builder_options.order = index::ListOrder::kDocumentOrdered;
  index::IndexBuilder builder(builder_options);
  ASSERT_TRUE(builder
                  .AddTermPostings("x", {{9, 1}, {2, 7}, {50, 3}, {11, 2}})
                  .ok());
  auto index = std::move(builder).Build();
  ASSERT_TRUE(index.ok());
  EXPECT_EQ(index.value().order(), index::IndexListOrder::kDocumentOrdered);

  Query q;
  q.AddTerm(0);
  QuitContinueOptions options;
  options.top_n = 10;
  QuitContinueEvaluator evaluator(&index.value(), options);
  serve::ConcurrentBufferPool pool(&index.value().disk(),
                                   serve::PoolOptions(8));
  auto result = evaluator.Evaluate(q, &pool);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result.value().top_docs.size(), 4u);
  EXPECT_EQ(result.value().top_docs[0].doc, 2u);  // Highest freq.
}

// Regression pin for the one-shot grow->quit / grow->capped trace
// event: the limit_hit latch in QuitContinueEvaluator::Evaluate keeps
// the tracer's Phase push_back off the steady-state posting path (it
// is the justification for the analyzer's allow(hot-alloc-ast)
// exemption there). At most ONE kPhase event may fire per query, no
// matter how many postings hit the budget check.
TEST(QuitContinueTest, BudgetPhaseTraceFiresAtMostOncePerQuery) {
  TestCollection tc = MakeRandomCollection(79, 200, 8, 4);
  Query q;
  for (TermId t = 0; t < 8; ++t) q.AddTerm(t);
  for (LimitMode mode : {LimitMode::kQuit, LimitMode::kContinue}) {
    obs::QueryTracer tracer;
    QuitContinueOptions options;
    options.accumulator_limit = 10;  // hit early and often
    options.mode = mode;
    options.tracer = &tracer;
    QuitContinueEvaluator evaluator(&tc.index, options);
    auto pool = MakeBigPool(tc);
    ASSERT_TRUE(evaluator.Evaluate(q, &pool).ok());
    auto phase_count = [&tracer] {
      size_t n = 0;
      for (const obs::TraceEvent& e : tracer.events()) {
        if (e.kind == obs::TraceEventKind::kPhase) ++n;
      }
      return n;
    };
    EXPECT_EQ(phase_count(), 1u);
    // The latch is per query, not per evaluator: a second query gets
    // its own single transition event.
    ASSERT_TRUE(evaluator.Evaluate(q, &pool).ok());
    EXPECT_EQ(phase_count(), 2u);
  }
}

}  // namespace
}  // namespace irbuf::core
