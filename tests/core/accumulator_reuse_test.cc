// The evaluators keep one AccumulatorSet per evaluating thread and reset
// it between queries instead of building a fresh one. That reuse must be
// invisible: whatever a thread evaluated before, a query's EvalResult
// (ranking, accumulator count, postings processed) equals the result of
// the same query on a fresh set, and threads sharing one evaluator never
// share a set. Registered with the `concurrency` label, so the TSan job
// runs the shared-evaluator test.

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "buffer/policy_factory.h"
#include "core/filtering_evaluator.h"
#include "core/quit_continue_evaluator.h"
#include "serve/concurrent_buffer_pool.h"
#include "test_index.h"
#include "util/rng.h"

namespace irbuf::core {
namespace {

using Evaluate = std::function<EvalResult(const Query&)>;

void ExpectSameResult(const EvalResult& got, const EvalResult& want,
                      const std::string& what) {
  EXPECT_EQ(got.top_docs, want.top_docs) << what;
  EXPECT_EQ(got.accumulators, want.accumulators) << what;
  EXPECT_EQ(got.postings_processed, want.postings_processed) << what;
}

/// Runs `evaluate` on a thread of its own, whose per-thread set has never
/// been used: the fresh-set reference.
EvalResult OnFreshThread(const Evaluate& evaluate, const Query& query) {
  EvalResult out;
  std::thread thread([&] { out = evaluate(query); });
  thread.join();
  return out;
}

/// Q1..Q4, largest candidate set first: the 12, 6 and 3 terms with the
/// longest lists, then the single shortest list.
std::vector<Query> BigToSmallQueries(const TestCollection& tc) {
  std::vector<TermId> by_df(tc.lists.size());
  for (TermId t = 0; t < by_df.size(); ++t) by_df[t] = t;
  std::sort(by_df.begin(), by_df.end(), [&tc](TermId a, TermId b) {
    return tc.lists[a].size() > tc.lists[b].size();
  });
  std::vector<Query> queries;
  for (size_t n : {12, 6, 3}) {
    Query q;
    for (size_t i = 0; i < n; ++i) q.AddTerm(by_df[i], 1 + i % 2);
    queries.push_back(q);
  }
  Query rare;
  rare.AddTerm(by_df.back(), 1);
  queries.push_back(rare);
  return queries;
}

// One thread evaluates Q1..Q4 big-first and then small-first, so every
// query but the first starts on a set a larger (or smaller) query left
// behind. Each result must equal its fresh-set run, for DF (filtered and
// unfiltered), BAF, QUIT and CONTINUE. Every evaluation gets a new pool,
// so BAF's buffer-dependent order is the same on both sides and only the
// accumulator set differs.
TEST(AccumulatorReuseTest, ReusedSetMatchesFreshSetInEitherOrder) {
  TestCollection tc = MakeRandomCollection(2024, 3000, 40, 16);
  const std::vector<Query> queries = BigToSmallQueries(tc);

  const auto run = [&tc](const auto& evaluator, const Query& q) {
    serve::ConcurrentBufferPool pool(
        &tc.index.disk(), serve::PoolOptions(24, buffer::PolicyKind::kRap));
    auto result = evaluator.Evaluate(q, &pool);
    EXPECT_TRUE(result.ok()) << result.status().message();
    return result.ok() ? std::move(result).value() : EvalResult{};
  };
  EvalOptions df;
  EvalOptions unfiltered;
  unfiltered.c_ins = 0.0;
  unfiltered.c_add = 0.0;
  EvalOptions baf;
  baf.buffer_aware = true;
  QuitContinueOptions quit;
  quit.accumulator_limit = 1500;
  quit.mode = LimitMode::kQuit;
  QuitContinueOptions cont = quit;
  cont.mode = LimitMode::kContinue;
  const FilteringEvaluator df_eval(&tc.index, df);
  const FilteringEvaluator unfiltered_eval(&tc.index, unfiltered);
  const FilteringEvaluator baf_eval(&tc.index, baf);
  const QuitContinueEvaluator quit_eval(&tc.index, quit);
  const QuitContinueEvaluator cont_eval(&tc.index, cont);
  const std::vector<std::pair<std::string, Evaluate>> evaluators = {
      {"DF", [&](const Query& q) { return run(df_eval, q); }},
      {"DF-unfiltered",
       [&](const Query& q) { return run(unfiltered_eval, q); }},
      {"BAF", [&](const Query& q) { return run(baf_eval, q); }},
      {"QUIT", [&](const Query& q) { return run(quit_eval, q); }},
      {"CONTINUE", [&](const Query& q) { return run(cont_eval, q); }},
  };

  for (const auto& [name, evaluate] : evaluators) {
    std::vector<EvalResult> fresh;
    for (const Query& q : queries) {
      fresh.push_back(OnFreshThread(evaluate, q));
    }
    // The queries really span sizes: the big one's candidate set is
    // several times the rare term's.
    EXPECT_GT(fresh.front().accumulators, 4 * fresh.back().accumulators)
        << name;
    for (const std::vector<size_t>& order :
         {std::vector<size_t>{0, 1, 2, 3}, std::vector<size_t>{3, 2, 1, 0}}) {
      for (size_t i : order) {
        ExpectSameResult(evaluate(queries[i]), fresh[i],
                         name + " Q" + std::to_string(i + 1) +
                             (order[0] == 0 ? " big-first" : " small-first"));
      }
    }
  }
}

// 8 threads share one DF evaluator and one small RAP pool, each running
// every query in its own rotated order. DF's results do not depend on
// buffer state, so each thread's results must equal a single-threaded
// run of the same queries; a set shared between threads would corrupt
// them (and TSan would flag the race).
TEST(AccumulatorReuseTest, ThreadsSharingOneEvaluatorRankAsOneThread) {
  constexpr int kThreads = 8;
  TestCollection tc = MakeRandomCollection(7, 2000, 30, 16);
  Pcg32 rng(3);
  std::vector<Query> queries;
  for (int i = 0; i < 10; ++i) {
    Query q;
    for (TermId t : SampleDistinct(30, 1 + rng.NextBounded(8), &rng)) {
      q.AddTerm(t, 1 + rng.NextBounded(2));
    }
    queries.push_back(q);
  }
  const FilteringEvaluator evaluator(&tc.index, EvalOptions{});

  std::vector<EvalResult> expected;
  {
    auto pool = MakeBigPool(tc);
    for (const Query& q : queries) {
      auto result = evaluator.Evaluate(q, &pool);
      ASSERT_TRUE(result.ok());
      expected.push_back(std::move(result).value());
    }
  }

  serve::ConcurrentBufferPool pool(
      &tc.index.disk(), serve::PoolOptions(16, buffer::PolicyKind::kRap));
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int round = 0; round < 3; ++round) {
        for (size_t k = 0; k < queries.size(); ++k) {
          const size_t i = (k + static_cast<size_t>(t)) % queries.size();
          auto result = evaluator.Evaluate(queries[i], &pool);
          ASSERT_TRUE(result.ok()) << result.status().message();
          ExpectSameResult(result.value(), expected[i],
                           "thread " + std::to_string(t) + " query " +
                               std::to_string(i));
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_GT(pool.StatsSnapshot().evictions, 0u);  // The pool was contended.
}

}  // namespace
}  // namespace irbuf::core
