#include "obs/span.h"

#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "obs/metrics.h"
#include "util/mutex.h"

namespace irbuf::obs {
namespace {

TEST(ScopedSpanTest, NullRecorderRecordsNothing) {
  // The "disabled is free" contract: a null recorder must be a no-op
  // (no registration, no clock reads, nothing to snapshot afterwards).
  { ScopedSpan span(nullptr, SpanStage::kEvaluate, 42); }
  SpanRecorder probe;
  EXPECT_TRUE(probe.Snapshot().empty());
}

TEST(ScopedSpanTest, RecordsStageTermQueryAndDepth) {
  SpanRecorder recorder;
  recorder.SetCurrentQuery(7);
  {
    ScopedSpan outer(&recorder, SpanStage::kEvaluate);
    {
      ScopedSpan inner(&recorder, SpanStage::kTermLoop, 5);
    }
  }
  recorder.SetCurrentQuery(SpanRecorder::kNoQuery);

  std::vector<ThreadSpans> snapshot = recorder.Snapshot();
  ASSERT_EQ(snapshot.size(), 1u);
  ASSERT_EQ(snapshot[0].spans.size(), 2u);
  // Inner closes first.
  const Span& inner = snapshot[0].spans[0];
  const Span& outer = snapshot[0].spans[1];
  EXPECT_EQ(inner.stage, SpanStage::kTermLoop);
  EXPECT_EQ(inner.term, 5u);
  EXPECT_EQ(inner.query, 7u);
  EXPECT_EQ(inner.depth, 1);
  EXPECT_EQ(outer.stage, SpanStage::kEvaluate);
  EXPECT_EQ(outer.depth, 0);
  // The inner span nests inside the outer interval.
  EXPECT_GE(inner.start_ns, outer.start_ns);
  EXPECT_LE(inner.start_ns + inner.dur_ns, outer.start_ns + outer.dur_ns);
}

TEST(SpanRecorderTest, RecordManualClampsBackwardsInterval) {
  SpanRecorder recorder;
  recorder.RecordManual(SpanStage::kQueueWait, 1000, 4000, 3);
  recorder.RecordManual(SpanStage::kQueueWait, 4000, 1000, 4);  // end < start
  std::vector<ThreadSpans> snapshot = recorder.Snapshot();
  ASSERT_EQ(snapshot.size(), 1u);
  ASSERT_EQ(snapshot[0].spans.size(), 2u);
  EXPECT_EQ(snapshot[0].spans[0].dur_ns, 3000u);
  EXPECT_EQ(snapshot[0].spans[0].query, 3u);
  EXPECT_EQ(snapshot[0].spans[1].dur_ns, 0u);
}

TEST(SpanRecorderTest, ClearDropsSpansKeepsRegistration) {
  SpanRecorder recorder;
  { ScopedSpan span(&recorder, SpanStage::kPagePin); }
  ASSERT_EQ(recorder.Snapshot().size(), 1u);
  recorder.Clear();
  std::vector<ThreadSpans> snapshot = recorder.Snapshot();
  ASSERT_EQ(snapshot.size(), 1u);  // Thread still registered.
  EXPECT_TRUE(snapshot[0].spans.empty());
}

TEST(SpanRecorderTest, ThreadsRecordIntoSeparateBuffers) {
  SpanRecorder recorder;
  constexpr int kThreads = 4;
  constexpr int kSpansPerThread = 100;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&recorder, t] {
      recorder.SetCurrentQuery(static_cast<uint32_t>(t));
      for (int i = 0; i < kSpansPerThread; ++i) {
        ScopedSpan span(&recorder, SpanStage::kAccumulate,
                        static_cast<uint32_t>(i));
      }
    });
  }
  for (auto& t : threads) t.join();

  std::vector<ThreadSpans> snapshot = recorder.Snapshot();
  ASSERT_EQ(snapshot.size(), static_cast<size_t>(kThreads));
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(snapshot[t].tid, static_cast<uint32_t>(t));
    EXPECT_EQ(snapshot[t].spans.size(),
              static_cast<size_t>(kSpansPerThread));
    // Every span in one buffer carries that thread's query tag: buffers
    // are genuinely thread-private.
    for (const Span& s : snapshot[t].spans) {
      EXPECT_EQ(s.query, snapshot[t].spans[0].query);
    }
  }
}

TEST(SpanRecorderTest, TwoRecordersDoNotShareBuffers) {
  // The thread-local cache keys on the recorder id, so interleaving two
  // live recorders routes each span to the right one.
  SpanRecorder a;
  SpanRecorder b;
  { ScopedSpan span(&a, SpanStage::kEvaluate); }
  { ScopedSpan span(&b, SpanStage::kTopKMerge); }
  { ScopedSpan span(&a, SpanStage::kPagePin); }
  std::vector<ThreadSpans> sa = a.Snapshot();
  std::vector<ThreadSpans> sb = b.Snapshot();
  // `a` saw this thread twice (re-registration after the switch to `b`
  // hands out a fresh tid, documented in BufferForThisThread).
  size_t a_spans = 0;
  for (const ThreadSpans& ts : sa) a_spans += ts.spans.size();
  size_t b_spans = 0;
  for (const ThreadSpans& ts : sb) b_spans += ts.spans.size();
  EXPECT_EQ(a_spans, 2u);
  EXPECT_EQ(b_spans, 1u);
  for (const ThreadSpans& ts : sb) {
    for (const Span& s : ts.spans) {
      EXPECT_EQ(s.stage, SpanStage::kTopKMerge);
    }
  }
}

std::vector<ThreadSpans> TwoQuerySnapshot() {
  // Query 1: wall 1000us = queue_wait 100us + evaluate 900us (depth 0);
  // a 400us term_loop nests inside evaluate (depth 1, inclusive).
  // Query 2: wall 200us = queue_wait 50us + evaluate 150us.
  // One non-query lock wait that must stay out of per-query tables.
  ThreadSpans t0;
  t0.tid = 0;
  t0.spans = {
      Span{0, 100000, 1, 0, SpanStage::kQueueWait, 0},
      Span{100000, 900000, 1, 0, SpanStage::kEvaluate, 0},
      Span{150000, 400000, 1, 5, SpanStage::kTermLoop, 1},
  };
  ThreadSpans t1;
  t1.tid = 1;
  t1.spans = {
      Span{0, 50000, 2, 0, SpanStage::kQueueWait, 0},
      Span{50000, 150000, 2, 0, SpanStage::kEvaluate, 0},
      Span{60000, 10000, SpanRecorder::kNoQuery, 0, SpanStage::kLockWait, 1},
  };
  return {t0, t1};
}

TEST(ComputeAttributionTest, WallAndStagePercentiles) {
  const SpanAttribution attr = ComputeAttribution(TwoQuerySnapshot());
  EXPECT_EQ(attr.queries, 2u);  // kNoQuery spans don't mint a query.
  // Walls {200us, 1000us}: linear-interpolation percentiles.
  EXPECT_NEAR(attr.wall_p50_us, 600.0, 1e-9);
  EXPECT_NEAR(attr.wall_p99_us, 992.0, 1e-9);

  const auto& evaluate =
      attr.stages[static_cast<size_t>(SpanStage::kEvaluate)];
  EXPECT_EQ(evaluate.spans, 2u);
  EXPECT_EQ(evaluate.total_ns, 1050000u);
  EXPECT_NEAR(evaluate.p50_us, 525.0, 1e-9);  // {150us, 900us} median
  // p99 bucket = the 1000us query alone: stage shares are read against
  // its wall, inclusively.
  EXPECT_NEAR(evaluate.p99_share, 0.9, 1e-12);
  const auto& term_loop =
      attr.stages[static_cast<size_t>(SpanStage::kTermLoop)];
  EXPECT_NEAR(term_loop.p99_share, 0.4, 1e-12);
  const auto& queue_wait =
      attr.stages[static_cast<size_t>(SpanStage::kQueueWait)];
  EXPECT_NEAR(queue_wait.p99_share, 0.1, 1e-12);

  // The kNoQuery lock wait is counted globally but has no query to
  // attribute to.
  const auto& lock_wait =
      attr.stages[static_cast<size_t>(SpanStage::kLockWait)];
  EXPECT_EQ(lock_wait.spans, 1u);
  EXPECT_EQ(lock_wait.total_ns, 10000u);
  EXPECT_NEAR(lock_wait.p99_share, 0.0, 1e-12);
}

TEST(ComputeAttributionTest, EmptySnapshotYieldsZeros) {
  const SpanAttribution attr = ComputeAttribution({});
  EXPECT_EQ(attr.queries, 0u);
  EXPECT_EQ(attr.wall_p50_us, 0.0);
  for (const auto& s : attr.stages) {
    EXPECT_EQ(s.spans, 0u);
  }
}

TEST(AttributionJsonTest, EmitsEveryStageKey) {
  const SpanAttribution attr = ComputeAttribution(TwoQuerySnapshot());
  JsonWriter w;
  AppendAttributionJson(attr, w);
  const std::string json = std::move(w).Take();
  // Schema stability: all stages present even when unused, so the
  // report tool never branches on key existence.
  for (size_t i = 0; i < kNumSpanStages; ++i) {
    const std::string key =
        std::string("\"") + SpanStageName(static_cast<SpanStage>(i)) + "\"";
    EXPECT_NE(json.find(key), std::string::npos) << key;
  }
  EXPECT_NE(json.find("\"queries\":2"), std::string::npos);
  EXPECT_NE(json.find("\"wall_us\""), std::string::npos);
}

TEST(ChromeTraceTest, EmitsCompleteEventsInMicroseconds) {
  std::vector<ThreadSpans> threads(1);
  threads[0].tid = 3;
  threads[0].spans = {Span{2500, 1500, 9, 4, SpanStage::kBlockDecode, 2}};
  const std::string json = ToChromeTraceJson(threads);
  EXPECT_NE(json.find("\"displayTimeUnit\":\"ms\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"block_decode\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"ts\":2.5"), std::string::npos);   // ns -> us
  EXPECT_NE(json.find("\"dur\":1.5"), std::string::npos);
  EXPECT_NE(json.find("\"tid\":3"), std::string::npos);
  EXPECT_NE(json.find("\"query\":9"), std::string::npos);
  EXPECT_NE(json.find("\"term\":4"), std::string::npos);
}

TEST(ChromeTraceTest, OmitsNoQueryAndZeroTermArgs) {
  std::vector<ThreadSpans> threads(1);
  threads[0].tid = 0;
  threads[0].spans = {
      Span{0, 10, SpanRecorder::kNoQuery, 0, SpanStage::kLockWait, 0}};
  const std::string json = ToChromeTraceJson(threads);
  EXPECT_EQ(json.find("\"query\""), std::string::npos);
  EXPECT_EQ(json.find("\"term\""), std::string::npos);

  // Whether `term` is emitted is decided by kind, not by value: term 0
  // is a valid TermId, so a term loop over term 0 keeps it.
  threads[0].spans = {Span{0, 10, 2, 0, SpanStage::kTermLoop, 0}};
  const std::string term0 = ToChromeTraceJson(threads);
  EXPECT_NE(term0.find("\"term\":0"), std::string::npos) << term0;
  EXPECT_NE(term0.find("\"query\":2"), std::string::npos) << term0;
}

TEST(ChromeTraceTest, InstantsAreThreadScopedInstantEvents) {
  std::vector<ThreadSpans> threads(1);
  threads[0].tid = 1;
  threads[0].spans = {Span{.start_ns = 3000, .query = 4, .term = 6,
                           .stage = SpanStage::kEvict, .page_no = 2,
                           .a = 1.5, .b = 3.0, .n = 7}};
  const std::string json = ToChromeTraceJson(threads);
  EXPECT_NE(json.find("\"name\":\"evict\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"s\":\"t\""), std::string::npos) << json;
  EXPECT_EQ(json.find("\"dur\""), std::string::npos) << json;
  for (const char* key : {"\"term\":6", "\"page\":2", "\"max_weight\":1.5",
                          "\"value\":3", "\"age\":7"}) {
    EXPECT_NE(json.find(key), std::string::npos) << key << " in " << json;
  }
}

TEST(ComputeAttributionTest, InstantsAreCountedButCarryNoTime) {
  std::vector<ThreadSpans> threads = TwoQuerySnapshot();
  const SpanAttribution before = ComputeAttribution(threads);
  threads[0].spans.push_back(Span{.start_ns = 200000, .query = 1, .term = 5,
                                  .stage = SpanStage::kSmax, .depth = 2,
                                  .a = 1.0, .b = 2.0});
  threads[1].spans.push_back(Span{.start_ns = 60000, .query = 3,
                                  .stage = SpanStage::kEvict});
  const SpanAttribution after = ComputeAttribution(threads);
  // An instant tagged with an unseen query mints no query, and the
  // walls are unchanged.
  EXPECT_EQ(after.queries, before.queries);
  EXPECT_EQ(after.wall_p50_us, before.wall_p50_us);
  EXPECT_EQ(after.wall_p99_us, before.wall_p99_us);
  const auto& smax = after.stages[static_cast<size_t>(SpanStage::kSmax)];
  EXPECT_EQ(smax.spans, 1u);
  EXPECT_EQ(smax.total_ns, 0u);
  EXPECT_EQ(smax.p99_share, 0.0);
}

TEST(MutexWaitJsonTest, HistogramPairsSkipEmptyBuckets) {
  MutexWaitStats stats("test.mutex");
  stats.RecordUncontended();
  stats.RecordWait(500);        // < 1us -> bucket 0
  stats.RecordWait(3'000'000);  // 3ms = 3000us -> [2048, 4096)us
  JsonWriter w;
  AppendMutexWaitJson(stats, w);
  const std::string json = std::move(w).Take();
  EXPECT_NE(json.find("\"acquisitions\":3"), std::string::npos);
  EXPECT_NE(json.find("\"contended\":2"), std::string::npos);
  EXPECT_NE(json.find("[0,1]"), std::string::npos);
  EXPECT_NE(json.find("[2048,1]"), std::string::npos);
  EXPECT_EQ(json.find("[1,"), std::string::npos);  // empty bucket omitted
}

TEST(MutexWaitBindingTest, MirrorsContendedWaitsIntoHistogramAndSpans) {
  MutexWaitStats stats("test.bound");
  Histogram hist(MutexWaitHistogramBounds());
  SpanRecorder recorder;
  MutexWaitBinding binding;
  binding.Bind(&stats, &hist, &recorder);

  recorder.SetCurrentQuery(11);
  stats.RecordUncontended();    // Not a wait: nothing mirrored.
  stats.RecordWait(2'000'000);  // 2ms wait on this thread.
  recorder.SetCurrentQuery(SpanRecorder::kNoQuery);

  EXPECT_EQ(hist.count(), 1u);
  EXPECT_NEAR(hist.sum(), 2000.0, 1e-9);  // Mirrored in microseconds.

  std::vector<ThreadSpans> snapshot = recorder.Snapshot();
  ASSERT_EQ(snapshot.size(), 1u);
  ASSERT_EQ(snapshot[0].spans.size(), 1u);
  EXPECT_EQ(snapshot[0].spans[0].stage, SpanStage::kLockWait);
  EXPECT_EQ(snapshot[0].spans[0].dur_ns, 2'000'000u);
  EXPECT_EQ(snapshot[0].spans[0].query, 11u);
}

TEST(MutexWaitBindingTest, HistogramBoundsMirrorStatsBuckets) {
  const std::vector<double> bounds = MutexWaitHistogramBounds();
  ASSERT_EQ(bounds.size(), MutexWaitStats::kBuckets - 1);
  EXPECT_EQ(bounds.front(), 1.0);
  for (size_t i = 1; i < bounds.size(); ++i) {
    EXPECT_EQ(bounds[i], 2.0 * bounds[i - 1]);
  }
}

TEST(SpanStageNameTest, AllStagesNamed) {
  for (size_t i = 0; i < kNumSpanStages; ++i) {
    EXPECT_STRNE(SpanStageName(static_cast<SpanStage>(i)), "unknown");
  }
}

TEST(SpanStageNameTest, TimedStagesPrecedeTheFourInstants) {
  for (size_t i = 0; i < kNumSpanStages; ++i) {
    EXPECT_EQ(IsInstant(static_cast<SpanStage>(i)), i >= kNumTimedStages)
        << SpanStageName(static_cast<SpanStage>(i));
  }
  EXPECT_EQ(kNumSpanStages - kNumTimedStages, 4u);
  EXPECT_STREQ(SpanStageName(SpanStage::kPageLost), "page_lost");
}

TEST(SpanRecorderTest, InstantTakesThreadQueryAndDepth) {
  SpanRecorder recorder;
  recorder.SetCurrentQuery(5);
  {
    ScopedSpan outer(&recorder, SpanStage::kTermLoop, 3);
    recorder.RecordInstant({.start_ns = 99, .dur_ns = 99, .query = 1,
                            .term = 3, .stage = SpanStage::kPhase,
                            .note = "ins->add"});
  }
  recorder.SetCurrentQuery(SpanRecorder::kNoQuery);
  const std::vector<ThreadSpans> snapshot = recorder.Snapshot();
  ASSERT_EQ(snapshot.size(), 1u);
  ASSERT_EQ(snapshot[0].spans.size(), 2u);
  const Span& instant = snapshot[0].spans[0];
  EXPECT_EQ(instant.stage, SpanStage::kPhase);
  EXPECT_EQ(instant.dur_ns, 0u);     // Always a point...
  EXPECT_NE(instant.start_ns, 99u);  // ...stamped when recorded...
  EXPECT_EQ(instant.query, 5u);      // ...with the thread's query...
  EXPECT_EQ(instant.depth, 1);       // ...and depth.
  EXPECT_STREQ(instant.note, "ins->add");
}

TEST(ScopedSpanTest, RecordIsNullWhenDisabled) {
  ScopedSpan off(nullptr, SpanStage::kPagePin, 1, 2);
  EXPECT_EQ(off.record(), nullptr);
  SpanRecorder recorder;
  {
    ScopedSpan on(&recorder, SpanStage::kPagePin, 1, 2);
    ASSERT_NE(on.record(), nullptr);
    on.record()->hit = true;
  }
  const std::vector<ThreadSpans> snapshot = recorder.Snapshot();
  ASSERT_EQ(snapshot[0].spans.size(), 1u);
  EXPECT_EQ(snapshot[0].spans[0].page_no, 2u);
  EXPECT_TRUE(snapshot[0].spans[0].hit);
}

}  // namespace
}  // namespace irbuf::obs
