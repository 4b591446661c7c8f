// The semantic side of the query record: kind-specific attributes on
// spans, the four instants, the exports over a snapshot (ToJson,
// DumpText, SmaxTrajectory), and the whole stack — evaluator plus pool,
// and the refinement-sequence harness — recording a coherent timeline.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "../core/test_index.h"
#include "core/filtering_evaluator.h"
#include "ir/experiment.h"
#include "obs/metrics.h"
#include "obs/span.h"
#include "serve/concurrent_buffer_pool.h"
#include "workload/refinement.h"

namespace irbuf::obs {
namespace {

/// Records of `stage`, in timeline order.
std::vector<Span> RecordsOf(const std::vector<ThreadSpans>& snapshot,
                            SpanStage stage) {
  std::vector<Span> out;
  for (const Span& s : MergedTimeline(snapshot)) {
    if (s.stage == stage) out.push_back(s);
  }
  return out;
}

TEST(TraceExportTest, RecordsEventsInOrderWithStepTags) {
  SpanRecorder recorder;
  recorder.SetCurrentQuery(0);
  {
    ScopedSpan term(&recorder, SpanStage::kTermLoop, 7);
    { ScopedSpan pin(&recorder, SpanStage::kPagePin, 7, 0); }  // A miss.
    recorder.RecordInstant(
        {.term = 7, .stage = SpanStage::kSmax, .a = 0.0, .b = 10.0});
    recorder.RecordInstant(
        {.term = 7, .stage = SpanStage::kPhase, .note = "ins->add"});
    Span* record = term.record();
    ASSERT_NE(record, nullptr);
    record->a = 0.5;  // f_ins
    record->b = 0.1;  // f_add
    record->page_no = 3;
    record->c = 10.0;  // Smax after
    record->n = 42;    // postings
    record->m = 5;     // accumulators
  }
  recorder.SetCurrentQuery(1);
  {
    ScopedSpan term(&recorder, SpanStage::kTermLoop, 9);
    term.record()->hit = true;  // Skipped.
    term.record()->b = 0.3;
  }
  recorder.SetCurrentQuery(SpanRecorder::kNoQuery);

  const std::vector<Span> tl = MergedTimeline(recorder.Snapshot());
  ASSERT_EQ(tl.size(), 5u);
  // The term loop closes last but sorts first: it started first.
  EXPECT_EQ(tl[0].stage, SpanStage::kTermLoop);
  EXPECT_EQ(tl[0].term, 7u);
  EXPECT_DOUBLE_EQ(tl[0].a, 0.5);
  EXPECT_DOUBLE_EQ(tl[0].b, 0.1);
  EXPECT_EQ(tl[0].page_no, 3u);
  EXPECT_DOUBLE_EQ(tl[0].c, 10.0);
  EXPECT_EQ(tl[0].n, 42u);
  EXPECT_EQ(tl[0].m, 5u);
  EXPECT_FALSE(tl[0].hit);
  EXPECT_EQ(tl[1].stage, SpanStage::kPagePin);
  EXPECT_FALSE(tl[1].hit);
  EXPECT_EQ(tl[2].stage, SpanStage::kSmax);
  EXPECT_DOUBLE_EQ(tl[2].b, 10.0);
  EXPECT_EQ(tl[3].stage, SpanStage::kPhase);
  EXPECT_STREQ(tl[3].note, "ins->add");
  // Instants are points, recorded at the depth of the enclosing span.
  for (size_t i = 2; i < 4; ++i) {
    EXPECT_EQ(tl[i].dur_ns, 0u) << i;
    EXPECT_EQ(tl[i].depth, 1) << i;
  }
  EXPECT_EQ(tl[4].stage, SpanStage::kTermLoop);
  EXPECT_EQ(tl[4].term, 9u);
  EXPECT_TRUE(tl[4].hit);
  // Records before SetCurrentQuery(1) carry query 0; after, query 1.
  for (size_t i = 0; i < 4; ++i) EXPECT_EQ(tl[i].query, 0u) << i;
  EXPECT_EQ(tl[4].query, 1u);

  recorder.Clear();
  EXPECT_TRUE(MergedTimeline(recorder.Snapshot()).empty());
}

TEST(TraceExportTest, SmaxTrajectoryIsPerStepTermEndValues) {
  std::vector<ThreadSpans> threads(1);
  threads[0].spans = {
      Span{.start_ns = 1, .query = 0, .term = 1,
           .stage = SpanStage::kTermLoop, .c = 5.0},
      Span{.start_ns = 2, .query = 0, .term = 4,
           .stage = SpanStage::kTermLoop, .hit = true, .c = 5.0},
      Span{.start_ns = 3, .query = 0, .term = 2,
           .stage = SpanStage::kTermLoop, .c = 9.0},
      Span{.start_ns = 4, .query = 1, .term = 3,
           .stage = SpanStage::kTermLoop, .c = 11.0},
  };
  // Skipped terms read nothing and are not on the trajectory.
  std::vector<double> step0 = SmaxTrajectory(threads, 0);
  ASSERT_EQ(step0.size(), 2u);
  EXPECT_DOUBLE_EQ(step0[0], 5.0);
  EXPECT_DOUBLE_EQ(step0[1], 9.0);
  std::vector<double> step1 = SmaxTrajectory(threads, 1);
  ASSERT_EQ(step1.size(), 1u);
  EXPECT_DOUBLE_EQ(step1[0], 11.0);
  EXPECT_TRUE(SmaxTrajectory(threads, 7).empty());
}

TEST(TraceExportTest, JsonAndTextExports) {
  std::vector<ThreadSpans> threads(1);
  threads[0].spans = {
      Span{.start_ns = 1000, .dur_ns = 500, .query = 0, .term = 3,
           .stage = SpanStage::kPagePin, .hit = true, .page_no = 2},
      Span{.start_ns = 1200, .query = 0, .term = 4,
           .stage = SpanStage::kEvict, .depth = 1, .page_no = 0,
           .a = 6.0, .b = 12.0, .n = 9},
  };
  const std::string json = ToJson(threads);
  EXPECT_NE(json.find("\"records\":["), std::string::npos) << json;
  EXPECT_NE(json.find("\"kind\":\"page_pin\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"hit\":true"), std::string::npos) << json;
  EXPECT_NE(json.find("\"kind\":\"evict\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"age\":9"), std::string::npos) << json;
  EXPECT_NE(json.find("\"dur_us\":0.5"), std::string::npos) << json;
  const std::string text = DumpText(threads);
  EXPECT_NE(text.find("page_pin"), std::string::npos) << text;
  EXPECT_NE(text.find("page=2"), std::string::npos) << text;
  EXPECT_NE(text.find("evict"), std::string::npos) << text;
  EXPECT_NE(text.find("value=12.000"), std::string::npos) << text;
}

// --- End-to-end: the whole stack records a coherent timeline ----------

class TracedEvaluationTest : public ::testing::Test {
 protected:
  void SetUp() override {
    tc_.emplace(core::MakeRandomCollection(41, 120, 10, 3));
    for (TermId t = 0; t < 10; ++t) query_.AddTerm(t, 1 + t % 3);
  }

  core::EvalResult Run(size_t pool_pages, SpanRecorder* recorder) {
    core::EvalOptions options;  // Persin's tuned constants.
    options.span_recorder = recorder;
    core::FilteringEvaluator evaluator(&tc_->index, options);
    serve::ConcurrentPoolOptions pool_options =
        serve::PoolOptions(pool_pages);
    pool_options.span_recorder = recorder;
    serve::ConcurrentBufferPool pool(&tc_->index.disk(), pool_options);
    if (recorder != nullptr) recorder->SetCurrentQuery(0);
    auto result = evaluator.Evaluate(query_, &pool);
    if (recorder != nullptr) {
      recorder->SetCurrentQuery(SpanRecorder::kNoQuery);
    }
    EXPECT_TRUE(result.ok());
    stats_ = pool.StatsSnapshot();
    return std::move(result).value();
  }

  std::optional<core::TestCollection> tc_;
  core::Query query_;
  buffer::BufferStats stats_;
};

TEST_F(TracedEvaluationTest, TimelineIsWellFormed) {
  SpanRecorder recorder;
  core::EvalResult result = Run(/*pool_pages=*/4, &recorder);
  const std::vector<ThreadSpans> snapshot = recorder.Snapshot();
  const std::vector<Span> terms = RecordsOf(snapshot, SpanStage::kTermLoop);
  // One term record per query term, skipped ones included; the last
  // carries the final accumulator-set size.
  ASSERT_EQ(terms.size(), query_.size());
  EXPECT_EQ(terms.back().m, result.accumulators);

  // Page pins agree one-for-one with the pool's counters, and their
  // hit tags partition into the pool's hit/miss counts.
  size_t hits = 0, misses = 0;
  for (const Span& s : RecordsOf(snapshot, SpanStage::kPagePin)) {
    (s.hit ? hits : misses)++;
  }
  EXPECT_EQ(hits + misses, stats_.fetches);
  EXPECT_EQ(hits, stats_.hits);
  EXPECT_EQ(misses, stats_.misses);
  EXPECT_EQ(misses, result.disk_reads);

  // A 4-page pool over a multi-term query must evict, and every eviction
  // record carries a positive replacement age.
  const std::vector<Span> evictions = RecordsOf(snapshot, SpanStage::kEvict);
  EXPECT_EQ(evictions.size(), stats_.evictions);
  EXPECT_GT(stats_.evictions, 0u);
  for (const Span& s : evictions) EXPECT_GT(s.n, 0u);

  // Terms run one after another, never nested, and every page pin lies
  // inside the loop of its own term.
  size_t term_ends = 0;
  for (size_t i = 0; i < terms.size(); ++i) {
    EXPECT_EQ(terms[i].depth, 0);
    if (i > 0) {
      EXPECT_LE(terms[i - 1].start_ns + terms[i - 1].dur_ns,
                terms[i].start_ns);
    }
    if (!terms[i].hit) ++term_ends;
  }
  for (const Span& pin : RecordsOf(snapshot, SpanStage::kPagePin)) {
    EXPECT_EQ(pin.depth, 1);
    const auto owner = std::find_if(
        terms.begin(), terms.end(), [&pin](const Span& t) {
          return t.start_ns <= pin.start_ns &&
                 pin.start_ns + pin.dur_ns <= t.start_ns + t.dur_ns;
        });
    ASSERT_NE(owner, terms.end());
    EXPECT_EQ(owner->term, pin.term);
  }
  EXPECT_EQ(term_ends + result.terms_skipped, query_.size());

  // Phase labels come from the fixed transition vocabulary, and the
  // Smax trajectory is non-decreasing (scores only accumulate).
  const std::set<std::string> allowed = {"ins->add", "ins->drop",
                                         "add->drop"};
  for (const Span& s : RecordsOf(snapshot, SpanStage::kPhase)) {
    EXPECT_TRUE(allowed.count(s.note)) << s.note;
  }
  std::vector<double> smax = SmaxTrajectory(snapshot, 0);
  EXPECT_EQ(smax.size(), term_ends);
  EXPECT_TRUE(std::is_sorted(smax.begin(), smax.end()));
}

TEST_F(TracedEvaluationTest, TracingIsObservationallyPure) {
  // The differential guarantee: a traced run returns a bit-identical
  // EvalResult and identical pool counters to an untraced one.
  SpanRecorder recorder;
  core::EvalResult traced = Run(4, &recorder);
  buffer::BufferStats traced_stats = stats_;
  core::EvalResult plain = Run(4, nullptr);

  EXPECT_FALSE(MergedTimeline(recorder.Snapshot()).empty());
  ASSERT_EQ(traced.top_docs.size(), plain.top_docs.size());
  for (size_t i = 0; i < plain.top_docs.size(); ++i) {
    EXPECT_EQ(traced.top_docs[i].doc, plain.top_docs[i].doc) << i;
    // Bit-identical, not merely close.
    EXPECT_EQ(std::memcmp(&traced.top_docs[i].score,
                          &plain.top_docs[i].score, sizeof(double)),
              0)
        << i;
  }
  EXPECT_EQ(traced.disk_reads, plain.disk_reads);
  EXPECT_EQ(traced.pages_processed, plain.pages_processed);
  EXPECT_EQ(traced.postings_processed, plain.postings_processed);
  EXPECT_EQ(traced.accumulators, plain.accumulators);
  EXPECT_EQ(traced.terms_skipped, plain.terms_skipped);
  EXPECT_EQ(traced_stats.fetches, stats_.fetches);
  EXPECT_EQ(traced_stats.hits, stats_.hits);
  EXPECT_EQ(traced_stats.misses, stats_.misses);
  EXPECT_EQ(traced_stats.evictions, stats_.evictions);
}

// --- Sequence-level telemetry -----------------------------------------

TEST(SequenceTelemetryTest, ExportCarriesPerStepObservability) {
  core::TestCollection tc = core::MakeRandomCollection(99, 400, 12, 4);
  core::Query q;
  for (TermId t = 0; t < 12; ++t) q.AddTerm(t, 1 + t % 2);
  auto seq = workload::BuildRefinementSequence(
      "test", q, tc.index, workload::RefinementKind::kAddOnly);
  ASSERT_TRUE(seq.ok());

  SpanRecorder recorder;
  MetricsRegistry registry;
  ir::SequenceRunOptions options;
  options.buffer_pages = 6;  // tight: forces misses and evictions
  options.span_recorder = &recorder;
  options.metrics = &registry;
  auto result =
      ir::RunRefinementSequence(tc.index, seq.value(), {}, options);
  ASSERT_TRUE(result.ok());

  // Per-step buffer deltas are consistent with the step's disk reads and
  // sum to the registry's whole-run counters.
  uint64_t fetches = 0, evictions = 0;
  for (size_t s = 0; s < result.value().steps.size(); ++s) {
    const ir::StepResult& sr = result.value().steps[s];
    EXPECT_EQ(sr.buffer.misses, sr.disk_reads) << s;
    EXPECT_EQ(sr.buffer.fetches, sr.buffer.hits + sr.buffer.misses) << s;
    fetches += sr.buffer.fetches;
    evictions += sr.buffer.evictions;
  }
  EXPECT_EQ(registry.CounterValue("buffer.fetches"), fetches);
  EXPECT_EQ(registry.CounterValue("buffer.evictions"), evictions);
  EXPECT_EQ(registry.CounterValue("disk.reads"),
            result.value().total_disk_reads);
  EXPECT_GT(evictions, 0u);

  // Every record is tagged with a step index, and every step has some.
  const std::vector<ThreadSpans> snapshot = recorder.Snapshot();
  std::set<uint32_t> steps;
  for (const Span& s : MergedTimeline(snapshot)) steps.insert(s.query);
  EXPECT_EQ(steps.size(), result.value().steps.size());
  EXPECT_EQ(*steps.rbegin() + 1, result.value().steps.size());
  EXPECT_FALSE(SmaxTrajectory(snapshot, 0).empty());

  // The JSON export carries the acceptance-criteria fields.
  std::string json = ir::SequenceTelemetryJson("test", options,
                                               result.value(), &recorder);
  for (const char* key :
       {"\"total_disk_reads\":", "\"hit_rate\":", "\"evictions\":",
        "\"phase_transitions\":", "\"smax_trajectory\":",
        "\"eviction_events\":", "\"steps\":["}) {
    EXPECT_NE(json.find(key), std::string::npos) << key;
  }
}

}  // namespace
}  // namespace irbuf::obs
