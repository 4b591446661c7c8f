// EvalControl work budgets — the serve layer's brownout rungs. Rung 1
// (max_terms) forfeits the tail of the processing order exactly like a
// deadline does; rung 2 (max_pages_per_term) truncates each list with
// per-page bound accounting. Both must be honest (quality_bound covers
// everything trimmed, to the bit) and both must be perfect no-ops at 0.

#include <gtest/gtest.h>

#include <vector>

#include "core/filtering_evaluator.h"
#include "core/scorer.h"
#include "test_index.h"

namespace irbuf::core {
namespace {

core::Query WideQuery(uint32_t num_terms) {
  core::Query q;
  for (TermId t = 0; t < num_terms; ++t) q.AddTerm(t, 1 + t % 2);
  return q;
}

// ---- Rung 1: max_terms forfeits the DF tail, bound bit-exact. ----

TEST(EvalBudgetTest, MaxTermsForfeitsDfTailExactly) {
  TestCollection tc = MakeRandomCollection(601, 200, 8, 3);
  const Query q = WideQuery(8);
  EvalOptions eval;
  eval.c_ins = 0.0;  // Thresholds off: the comparison below is exact.
  eval.c_add = 0.0;
  eval.top_n = 15;
  FilteringEvaluator evaluator(&tc.index, eval);

  EvalControl control;
  control.max_terms = 3;
  serve::ConcurrentBufferPool pool(&tc.index.disk(), serve::PoolOptions(16));
  auto r = evaluator.Evaluate(q, &pool, &control);
  ASSERT_TRUE(r.ok());
  const EvalResult& er = r.value();
  EXPECT_TRUE(er.work_trimmed);
  EXPECT_TRUE(er.degraded);
  EXPECT_FALSE(er.deadline_hit);  // The server trimmed, not the clock.

  // The forfeited terms are exactly the DF-order tail; their charge is
  // the same per-term w(fmax, idf) * w_qt a deadline forfeit uses,
  // accumulated in the same order — exact equality, not epsilon.
  const std::vector<QueryTerm> order = DfTermOrder(q, tc.index.lexicon());
  double expected_bound = 0.0;
  for (size_t i = control.max_terms; i < order.size(); ++i) {
    const index::TermInfo& info = tc.index.lexicon().info(order[i].term);
    expected_bound += DocTermWeight(info.fmax, info.idf) *
                      QueryTermWeight(order[i].fq, info.idf);
  }
  EXPECT_EQ(er.quality_bound, expected_bound);

  // The answer equals evaluating only the surviving prefix.
  Query prefix;
  for (size_t i = 0; i < control.max_terms; ++i) {
    prefix.AddTerm(order[i].term, order[i].fq);
  }
  const auto reference = BruteForceRanking(tc, prefix, 15);
  ASSERT_EQ(er.top_docs.size(), reference.size());
  for (size_t i = 0; i < reference.size(); ++i) {
    EXPECT_EQ(er.top_docs[i].doc, reference[i].doc) << "rank " << i;
    EXPECT_NEAR(er.top_docs[i].score, reference[i].score, 1e-9);
  }
}

TEST(EvalBudgetTest, MaxTermsCapsBafRounds) {
  TestCollection tc = MakeRandomCollection(607, 180, 8, 3);
  EvalOptions eval;
  eval.buffer_aware = true;
  eval.record_trace = true;
  FilteringEvaluator evaluator(&tc.index, eval);

  EvalControl control;
  control.max_terms = 2;
  serve::ConcurrentBufferPool pool(
      &tc.index.disk(), serve::PoolOptions(16, buffer::PolicyKind::kRap));
  auto r = evaluator.Evaluate(WideQuery(8), &pool, &control);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r.value().work_trimmed);
  EXPECT_TRUE(r.value().degraded);
  EXPECT_GT(r.value().quality_bound, 0.0);
  // At most two BAF rounds actually evaluated a term.
  EXPECT_LE(r.value().trace.size(), 2u);
}

// ---- Rung 2: max_pages_per_term truncates lists, bound bit-exact. ----

TEST(EvalBudgetTest, MaxPagesPerTermTruncatesWithPageBounds) {
  TestCollection tc = MakeRandomCollection(613, 220, 6, 3);
  const Query q = WideQuery(6);
  EvalOptions eval;
  eval.c_ins = 0.0;
  eval.c_add = 0.0;
  eval.record_trace = true;
  FilteringEvaluator evaluator(&tc.index, eval);

  EvalControl control;
  control.max_pages_per_term = 2;
  serve::ConcurrentBufferPool pool(&tc.index.disk(), serve::PoolOptions(16));
  auto r = evaluator.Evaluate(q, &pool, &control);
  ASSERT_TRUE(r.ok());
  const EvalResult& er = r.value();
  EXPECT_TRUE(er.work_trimmed);
  EXPECT_TRUE(er.degraded);
  EXPECT_GT(er.pages_trimmed, 0u);

  // Per term: at most 2 pages touched, the rest charged per page at
  // PageMaxWeight * w_qt — replicate the evaluator's own accumulation
  // order (DF term order, then page order) for exact equality.
  double expected_bound = 0.0;
  uint32_t expected_trimmed = 0;
  for (const QueryTerm& qt : DfTermOrder(q, tc.index.lexicon())) {
    const index::TermInfo& info = tc.index.lexicon().info(qt.term);
    const double wq = QueryTermWeight(qt.fq, info.idf);
    for (uint32_t p = control.max_pages_per_term; p < info.pages; ++p) {
      expected_bound += tc.index.disk().PageMaxWeight(PageId{qt.term, p}) * wq;
    }
    if (info.pages > control.max_pages_per_term) {
      expected_trimmed += info.pages - control.max_pages_per_term;
    }
  }
  EXPECT_EQ(er.quality_bound, expected_bound);
  EXPECT_EQ(er.pages_trimmed, expected_trimmed);
  for (const TermTrace& row : er.trace) {
    EXPECT_LE(row.pages_processed, 2u);
    const uint32_t total = tc.index.lexicon().info(row.term).pages;
    EXPECT_EQ(row.pages_trimmed,
              total > 2u ? total - 2u : 0u);
  }
}

// ---- TermwiseRun snapshots EvalControl by value. ----

// The sharded serve path Begins every shard's run with a stack-local
// EvalControl and explicitly allows abandoned straggler steps to
// execute after the coordinator's Evaluate returned — so a run that
// merely borrowed the pointer would dereference dead stack. The run
// must snapshot the control at Begin: clobbering (or destroying) the
// caller's copy afterwards changes nothing.
TEST(EvalBudgetTest, TermwiseRunCopiesControlByValue) {
  TestCollection tc = MakeRandomCollection(619, 220, 4, 3);
  const Query q = WideQuery(4);
  EvalOptions eval;
  eval.c_ins = 0.0;
  eval.c_add = 0.0;
  eval.record_trace = true;
  FilteringEvaluator evaluator(&tc.index, eval);
  serve::ConcurrentBufferPool pool(&tc.index.disk(), serve::PoolOptions(16));

  FilteringEvaluator::TermwiseRun run(&evaluator, &pool);
  {
    EvalControl control;
    control.max_pages_per_term = 2;
    run.Begin(q, &control);
    control.max_pages_per_term = 0;  // Stale storage, reused.
  }  // ...and destroyed before the first Step.

  double smax = 0.0;
  for (const QueryTerm& qt : DfTermOrder(q, tc.index.lexicon())) {
    auto step = run.Step(qt, smax);
    ASSERT_TRUE(step.ok());
    smax = step.value().smax;
  }
  const EvalResult er = run.Finish();
  // The page cap from Begin-time still governs every step.
  EXPECT_TRUE(er.work_trimmed);
  EXPECT_GT(er.pages_trimmed, 0u);
  for (const TermTrace& row : er.trace) {
    EXPECT_LE(row.pages_processed, 2u);
  }
}

// ---- Zero budgets are perfect no-ops. ----

TEST(EvalBudgetTest, ZeroBudgetsAreBitInvisible) {
  TestCollection tc = MakeRandomCollection(617, 180, 8, 3);
  const Query q = WideQuery(8);
  EvalOptions eval;
  FilteringEvaluator evaluator(&tc.index, eval);

  serve::ConcurrentBufferPool plain_pool(&tc.index.disk(),
                                         serve::PoolOptions(12));
  auto plain = evaluator.Evaluate(q, &plain_pool);
  ASSERT_TRUE(plain.ok());

  EvalControl control;  // All budgets 0, no deadline.
  serve::ConcurrentBufferPool pool(&tc.index.disk(), serve::PoolOptions(12));
  auto r = evaluator.Evaluate(q, &pool, &control);
  ASSERT_TRUE(r.ok());
  EXPECT_FALSE(r.value().work_trimmed);
  EXPECT_FALSE(r.value().degraded);
  EXPECT_EQ(r.value().pages_trimmed, 0u);
  EXPECT_EQ(r.value().disk_reads, plain.value().disk_reads);
  EXPECT_EQ(r.value().postings_processed, plain.value().postings_processed);
  ASSERT_EQ(r.value().top_docs.size(), plain.value().top_docs.size());
  for (size_t i = 0; i < r.value().top_docs.size(); ++i) {
    EXPECT_EQ(r.value().top_docs[i].doc, plain.value().top_docs[i].doc);
    EXPECT_EQ(r.value().top_docs[i].score, plain.value().top_docs[i].score);
  }
}

}  // namespace
}  // namespace irbuf::core
