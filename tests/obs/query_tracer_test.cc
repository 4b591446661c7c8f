#include "obs/query_tracer.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <set>
#include <string>
#include <vector>

#include "../core/test_index.h"
#include "core/filtering_evaluator.h"
#include "ir/experiment.h"
#include "obs/metrics.h"
#include "workload/refinement.h"

namespace irbuf::obs {
namespace {

TEST(QueryTracerTest, RecordsEventsInOrderWithStepTags) {
  QueryTracer tracer;
  tracer.BeginQuery(2);
  tracer.BeginTerm(7, 3, 0.5, 0.1);
  tracer.Fetch(7, 0, false);
  tracer.Smax(7, 0.0, 10.0);
  tracer.Phase(7, "ins->add");
  tracer.EndTerm(7, 10.0, 42);
  tracer.Accumulators(5);
  tracer.EndQuery(10.0, 5);
  tracer.BeginStep(1);
  tracer.BeginQuery(1);
  tracer.SkipTerm(9, 0.2, 0.3);
  tracer.EndQuery(10.0, 5);

  const std::vector<TraceEvent>& ev = tracer.events();
  ASSERT_EQ(ev.size(), 12u);
  EXPECT_EQ(ev[0].kind, TraceEventKind::kQueryBegin);
  EXPECT_EQ(ev[0].n, 2u);
  EXPECT_EQ(ev[1].kind, TraceEventKind::kTermBegin);
  EXPECT_EQ(ev[1].term, 7u);
  EXPECT_DOUBLE_EQ(ev[1].a, 0.5);
  EXPECT_DOUBLE_EQ(ev[1].b, 0.1);
  EXPECT_EQ(ev[1].n, 3u);
  EXPECT_EQ(ev[2].kind, TraceEventKind::kFetch);
  EXPECT_FALSE(ev[2].hit);
  EXPECT_EQ(ev[3].kind, TraceEventKind::kSmax);
  EXPECT_DOUBLE_EQ(ev[3].b, 10.0);
  EXPECT_EQ(ev[4].kind, TraceEventKind::kPhase);
  EXPECT_STREQ(ev[4].phase, "ins->add");
  EXPECT_EQ(ev[5].kind, TraceEventKind::kTermEnd);
  EXPECT_EQ(ev[5].n, 42u);
  EXPECT_EQ(ev[7].kind, TraceEventKind::kQueryEnd);
  // Events before BeginStep(1) carry step 0; after, step 1.
  for (size_t i = 0; i < 8; ++i) EXPECT_EQ(ev[i].step, 0u) << i;
  for (size_t i = 8; i < ev.size(); ++i) EXPECT_EQ(ev[i].step, 1u) << i;
  EXPECT_EQ(tracer.current_step(), 1u);
  EXPECT_EQ(tracer.CountKind(TraceEventKind::kQueryBegin), 2u);
  EXPECT_EQ(tracer.CountKind(TraceEventKind::kTermSkip), 1u);
  EXPECT_EQ(tracer.CountKind(TraceEventKind::kEvict), 0u);

  tracer.Clear();
  EXPECT_TRUE(tracer.events().empty());
  EXPECT_EQ(tracer.current_step(), 0u);
}

TEST(QueryTracerTest, SmaxTrajectoryIsPerStepTermEndValues) {
  QueryTracer tracer;
  tracer.EndTerm(1, 5.0, 1);
  tracer.EndTerm(2, 9.0, 1);
  tracer.BeginStep(1);
  tracer.EndTerm(3, 11.0, 1);
  std::vector<double> step0 = tracer.SmaxTrajectory(0);
  ASSERT_EQ(step0.size(), 2u);
  EXPECT_DOUBLE_EQ(step0[0], 5.0);
  EXPECT_DOUBLE_EQ(step0[1], 9.0);
  std::vector<double> step1 = tracer.SmaxTrajectory(1);
  ASSERT_EQ(step1.size(), 1u);
  EXPECT_DOUBLE_EQ(step1[0], 11.0);
  EXPECT_TRUE(tracer.SmaxTrajectory(7).empty());
}

TEST(QueryTracerTest, JsonAndTextExports) {
  QueryTracer tracer;
  tracer.BeginQuery(1);
  tracer.Fetch(3, 2, true);
  tracer.Evict(4, 0, 6.0, 12.0, 9);
  tracer.EndQuery(0.0, 1);
  std::string json = tracer.ToJson();
  EXPECT_NE(json.find("\"events\":["), std::string::npos) << json;
  EXPECT_NE(json.find("\"kind\":\"fetch\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"hit\":true"), std::string::npos) << json;
  EXPECT_NE(json.find("\"kind\":\"evict\""), std::string::npos) << json;
  std::string text = tracer.DumpText();
  EXPECT_NE(text.find("query_begin"), std::string::npos) << text;
  EXPECT_NE(text.find("evict"), std::string::npos) << text;
}

// --- End-to-end: the whole stack records a coherent timeline ----------

class TracedEvaluationTest : public ::testing::Test {
 protected:
  void SetUp() override {
    tc_.emplace(core::MakeRandomCollection(41, 120, 10, 3));
    for (TermId t = 0; t < 10; ++t) query_.AddTerm(t, 1 + t % 3);
  }

  core::EvalResult Run(size_t pool_pages, QueryTracer* tracer) {
    core::EvalOptions options;  // Persin's tuned constants.
    options.tracer = tracer;
    core::FilteringEvaluator evaluator(&tc_->index, options);
    serve::ConcurrentBufferPool pool(&tc_->index.disk(),
                                     serve::PoolOptions(pool_pages));
    pool.SetTracer(tracer);
    auto result = evaluator.Evaluate(query_, &pool);
    EXPECT_TRUE(result.ok());
    stats_ = pool.StatsSnapshot();
    return std::move(result).value();
  }

  std::optional<core::TestCollection> tc_;
  core::Query query_;
  buffer::BufferStats stats_;
};

TEST_F(TracedEvaluationTest, TimelineIsWellFormed) {
  QueryTracer tracer;
  core::EvalResult result = Run(/*pool_pages=*/4, &tracer);
  const std::vector<TraceEvent>& ev = tracer.events();
  ASSERT_FALSE(ev.empty());
  EXPECT_EQ(ev.front().kind, TraceEventKind::kQueryBegin);
  EXPECT_EQ(ev.front().n, query_.size());
  EXPECT_EQ(ev.back().kind, TraceEventKind::kQueryEnd);
  EXPECT_EQ(ev.back().n, result.accumulators);

  // Fetch events agree one-for-one with the pool's counters, and their
  // hit tags partition into the pool's hit/miss counts.
  size_t hits = 0, misses = 0;
  for (const TraceEvent& e : ev) {
    if (e.kind != TraceEventKind::kFetch) continue;
    (e.hit ? hits : misses)++;
  }
  EXPECT_EQ(hits + misses, stats_.fetches);
  EXPECT_EQ(hits, stats_.hits);
  EXPECT_EQ(misses, stats_.misses);
  EXPECT_EQ(misses, result.disk_reads);

  // A 4-page pool over a multi-term query must evict, and every eviction
  // event carries a positive replacement age.
  EXPECT_EQ(tracer.CountKind(TraceEventKind::kEvict), stats_.evictions);
  EXPECT_GT(stats_.evictions, 0u);
  for (const TraceEvent& e : ev) {
    if (e.kind == TraceEventKind::kEvict) {
      EXPECT_GT(e.n, 0u);
    }
  }

  // Terms begin before they end, never nested.
  bool in_term = false;
  size_t term_ends = 0;
  for (const TraceEvent& e : ev) {
    if (e.kind == TraceEventKind::kTermBegin) {
      EXPECT_FALSE(in_term);
      in_term = true;
    } else if (e.kind == TraceEventKind::kTermEnd) {
      EXPECT_TRUE(in_term);
      in_term = false;
      ++term_ends;
    }
  }
  EXPECT_FALSE(in_term);
  EXPECT_EQ(term_ends + result.terms_skipped, query_.size());

  // Phase labels come from the fixed transition vocabulary, and the
  // Smax trajectory is non-decreasing (scores only accumulate).
  const std::set<std::string> allowed = {"ins->add", "ins->drop",
                                         "add->drop"};
  for (const TraceEvent& e : ev) {
    if (e.kind == TraceEventKind::kPhase) {
      EXPECT_TRUE(allowed.count(e.phase)) << e.phase;
    }
  }
  std::vector<double> smax = tracer.SmaxTrajectory(0);
  EXPECT_EQ(smax.size(), term_ends);
  EXPECT_TRUE(std::is_sorted(smax.begin(), smax.end()));
}

TEST_F(TracedEvaluationTest, TracingIsObservationallyPure) {
  // The differential guarantee: a traced run returns a bit-identical
  // EvalResult and identical pool counters to an untraced one.
  QueryTracer tracer;
  core::EvalResult traced = Run(4, &tracer);
  buffer::BufferStats traced_stats = stats_;
  core::EvalResult plain = Run(4, nullptr);

  EXPECT_FALSE(tracer.events().empty());
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

  QueryTracer tracer;
  MetricsRegistry registry;
  ir::SequenceRunOptions options;
  options.buffer_pages = 6;  // tight: forces misses and evictions
  options.tracer = &tracer;
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
  EXPECT_EQ(registry.FindCounter("buffer.fetches")->value(), fetches);
  EXPECT_EQ(registry.FindCounter("buffer.evictions")->value(), evictions);
  EXPECT_EQ(registry.FindCounter("disk.reads")->value(),
            result.value().total_disk_reads);
  EXPECT_GT(evictions, 0u);

  // The tracer tagged events with every step index.
  EXPECT_EQ(tracer.current_step() + 1, result.value().steps.size());
  EXPECT_FALSE(tracer.SmaxTrajectory(0).empty());

  // The JSON export carries the acceptance-criteria fields.
  std::string json = ir::SequenceTelemetryJson("test", options,
                                               result.value(), &tracer);
  for (const char* key :
       {"\"total_disk_reads\":", "\"hit_rate\":", "\"evictions\":",
        "\"phase_transitions\":", "\"smax_trajectory\":",
        "\"eviction_events\":", "\"steps\":["}) {
    EXPECT_NE(json.find(key), std::string::npos) << key;
  }
}

}  // namespace
}  // namespace irbuf::obs
