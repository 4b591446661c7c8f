// Tracing a pool with readahead on. Recording is per thread, so query
// threads and the pool's I/O workers each write their own buffer: eight
// query threads evaluating through one pool at readahead depth 4 get
// the untraced run's rankings, and every eviction — made by a query
// thread's demand miss or by an I/O worker's readahead load — leaves
// exactly one kEvict record. Registered with the `concurrency` label, so
// CI's ThreadSanitizer job runs it.

#include <gtest/gtest.h>

#include <optional>
#include <thread>
#include <vector>

#include "../core/test_index.h"
#include "quiesce.h"
#include "core/filtering_evaluator.h"
#include "obs/span.h"
#include "serve/concurrent_buffer_pool.h"

namespace irbuf::serve {
namespace {

constexpr size_t kThreads = 8;
constexpr size_t kQueriesPerThread = 6;
constexpr TermId kTerms = 24;

struct RunOutcome {
  /// [thread][query] evaluation results.
  std::vector<std::vector<core::EvalResult>> results;
  buffer::BufferStats stats;
  PoolPrefetchStats prefetch;
};

class TracedReadaheadTest : public ::testing::Test {
 protected:
  void SetUp() override {
    tc_.emplace(core::MakeRandomCollection(515, 400, kTerms, 8));
  }

  /// Query `q` of thread `t`: four distinct terms, overlapping across
  /// threads so their scans share (and evict) pages.
  static core::Query QueryFor(size_t t, size_t q) {
    core::Query query;
    for (TermId k = 0; k < 4; ++k) {
      query.AddTerm(static_cast<TermId>((t * 3 + q * 5 + k * 7) % kTerms),
                    1 + k % 2);
    }
    return query;
  }

  RunOutcome Run(obs::SpanRecorder* recorder) {
    core::EvalOptions eval;  // DF: term order ignores residency.
    eval.span_recorder = recorder;
    core::FilteringEvaluator evaluator(&tc_->index, eval);
    ConcurrentPoolOptions options;
    options.capacity = 24;  // Far below the working set: evictions.
    options.prefetch_depth = 4;
    options.io_delay_us_per_miss = 50;
    options.span_recorder = recorder;
    ConcurrentBufferPool pool(&tc_->index.disk(), options);

    RunOutcome out;
    out.results.resize(kThreads);
    std::vector<std::thread> threads;
    for (size_t t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        for (size_t q = 0; q < kQueriesPerThread; ++q) {
          if (recorder != nullptr) {
            recorder->SetCurrentQuery(
                static_cast<uint32_t>(t * kQueriesPerThread + q));
          }
          auto result = evaluator.Evaluate(QueryFor(t, q), &pool);
          EXPECT_TRUE(result.ok()) << result.status().message();
          if (result.ok()) out.results[t].push_back(std::move(result).value());
        }
        if (recorder != nullptr) {
          recorder->SetCurrentQuery(obs::SpanRecorder::kNoQuery);
        }
      });
    }
    for (std::thread& thread : threads) thread.join();
    Quiesce(pool);
    out.stats = pool.StatsSnapshot();
    out.prefetch = pool.PrefetchStatsSnapshot();
    return out;
  }

  std::optional<core::TestCollection> tc_;
};

TEST_F(TracedReadaheadTest, TracedRunMatchesUntracedAndRecordsEveryEviction) {
  const RunOutcome plain = Run(nullptr);
  obs::SpanRecorder recorder;
  const RunOutcome traced = Run(&recorder);

  // Rankings and the evaluation counters are bit-identical: DF's order
  // and thresholds never depend on what the pool holds.
  uint64_t pages = 0;
  for (size_t t = 0; t < kThreads; ++t) {
    ASSERT_EQ(plain.results[t].size(), kQueriesPerThread);
    ASSERT_EQ(traced.results[t].size(), kQueriesPerThread);
    for (size_t q = 0; q < kQueriesPerThread; ++q) {
      const core::EvalResult& a = plain.results[t][q];
      const core::EvalResult& b = traced.results[t][q];
      ASSERT_EQ(a.top_docs.size(), b.top_docs.size()) << t << "/" << q;
      for (size_t r = 0; r < a.top_docs.size(); ++r) {
        EXPECT_EQ(a.top_docs[r].doc, b.top_docs[r].doc);
        EXPECT_EQ(a.top_docs[r].score, b.top_docs[r].score);
      }
      EXPECT_EQ(a.pages_processed, b.pages_processed);
      EXPECT_EQ(a.postings_processed, b.postings_processed);
      EXPECT_EQ(a.accumulators, b.accumulators);
      pages += b.pages_processed;
    }
  }
  // Pool counters: fetches are fixed by the workload. Hits, misses and
  // evictions depend on whether a demand fetch finds its page's
  // readahead load done, in flight or not yet started — two untraced
  // runs differ there too — so the traced run's counters are checked
  // against its own record, exactly.
  EXPECT_EQ(plain.stats.fetches, pages);
  EXPECT_EQ(traced.stats.fetches, pages);
  for (const RunOutcome* run : {&plain, &traced}) {
    EXPECT_EQ(run->stats.fetches, run->stats.hits + run->stats.misses);
    EXPECT_EQ(run->prefetch.device_reads,
              run->stats.misses + run->prefetch.issued);
  }

  uint64_t pins = 0, hit_pins = 0, miss_reads = 0, loads = 0, evicts = 0;
  // Evictions recorded by I/O workers (threads that issued readahead)
  // and by query threads (threads that ran term loops).
  uint64_t worker_evicts = 0, query_evicts = 0;
  for (const obs::ThreadSpans& ts : recorder.Snapshot()) {
    bool worker = false;
    uint64_t thread_evicts = 0;
    for (const obs::Span& s : ts.spans) {
      switch (s.stage) {
        case obs::SpanStage::kPagePin:
          ++pins;
          if (s.hit) ++hit_pins;
          break;
        case obs::SpanStage::kMissRead:
          ++miss_reads;
          break;
        case obs::SpanStage::kPrefetchIssue:
          // I/O workers serve no query: their records stay untagged.
          EXPECT_EQ(s.query, obs::SpanRecorder::kNoQuery);
          worker = true;
          if (s.hit) ++loads;
          break;
        case obs::SpanStage::kEvict:
          ++thread_evicts;
          break;
        default:
          break;
      }
    }
    evicts += thread_evicts;
    (worker ? worker_evicts : query_evicts) += thread_evicts;
  }
  EXPECT_EQ(pins, traced.stats.fetches);
  EXPECT_EQ(hit_pins, traced.stats.hits);
  EXPECT_EQ(miss_reads, traced.stats.misses);
  EXPECT_EQ(loads, traced.prefetch.issued);
  EXPECT_GT(traced.prefetch.issued, 0u);
  // Evictions by query threads and by I/O workers, one record each.
  EXPECT_EQ(evicts, traced.stats.evictions);
  EXPECT_GT(traced.stats.evictions, 0u);
  EXPECT_GT(worker_evicts, 0u);
  EXPECT_GT(query_evicts, 0u);
}

}  // namespace
}  // namespace irbuf::serve
