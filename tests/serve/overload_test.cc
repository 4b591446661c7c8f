// Overload control: deadline-aware shedding from the admission queue
// (kShedWhileQueued, CoDel-style against the observed p50 service time)
// and the queue-delay-EWMA brownout ladder (trim terms, then cap pages
// per term) that degrades answers before the server starts dropping
// them. Also pins the serve.* metric split: admission bounces and
// queued sheds are separate counters, and shed queries never pollute
// the latency histogram.

#include <gtest/gtest.h>

#include <future>
#include <vector>

#include "../core/test_index.h"
#include "core/filtering_evaluator.h"
#include "fault/backoff.h"
#include "obs/metrics.h"
#include "serve/query_server.h"

namespace irbuf {
namespace {

using core::MakeRandomCollection;
using core::TestCollection;

core::Query WideQuery(uint32_t num_terms) {
  core::Query q;
  for (TermId t = 0; t < num_terms; ++t) q.AddTerm(t, 1);
  return q;
}

// ---- Shedding: a queued query whose budget is spent is dropped with a
// typed status, visible in its own counter, invisible to latency. ----

TEST(OverloadShedTest, QueuedQueryPastDeadlineIsShedTyped) {
  TestCollection tc = MakeRandomCollection(911, 200, 8, 3);
  serve::ServerOptions options;
  options.num_threads = 1;
  options.queue_depth = 16;
  options.buffer_pages = 8;
  options.deadline_us = 20'000;
  options.overload.enabled = true;
  serve::QueryServer server(&tc.index, options);
  obs::MetricsRegistry registry;
  server.BindMetrics(&registry);

  // Fill the queue BEFORE starting the worker, then let every
  // submission-measured deadline elapse: with the budget spent while
  // queued, all four are shed at dequeue — no worker ever evaluates
  // into a guaranteed-late answer.
  std::vector<std::future<Result<serve::QueryResponse>>> futures;
  for (int i = 0; i < 4; ++i) {
    auto submitted = server.Submit(1, WideQuery(8));
    ASSERT_TRUE(submitted.ok());
    futures.push_back(std::move(submitted).value());
  }
  fault::SleepUs(30'000);
  server.Start();

  for (auto& f : futures) {
    Result<serve::QueryResponse> r = f.get();
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), StatusCode::kShedWhileQueued)
        << r.status().ToString();
  }

  // A fresh query with its budget intact is served normally.
  auto fresh = server.Execute(1, WideQuery(8));
  ASSERT_TRUE(fresh.ok()) << fresh.status().ToString();
  server.Stop();

  const serve::ServerStats stats = server.StatsSnapshot();
  EXPECT_EQ(stats.shed, 4u);
  EXPECT_EQ(stats.completed, 1u);
  EXPECT_EQ(stats.rejected, 0u);
  EXPECT_EQ(stats.failed, 0u);

  // Metric split: sheds land in their own counter, not in failures or
  // admission rejections — and never in the latency histogram.
  EXPECT_EQ(registry.CounterValue("serve.shed_while_queued"), 4u);
  EXPECT_EQ(registry.CounterValue("serve.rejected_at_admission"), 0u);
  EXPECT_EQ(registry.FindHistogram("serve.latency_us")->count(), 1u);
}

TEST(OverloadShedTest, ShedRequiresMinimumServiceSamples) {
  TestCollection tc = MakeRandomCollection(917, 150, 6, 3);
  serve::ServerOptions options;
  options.num_threads = 1;
  options.buffer_pages = 8;
  options.deadline_us = 1'000'000;  // Generous: nothing actually late.
  options.overload.enabled = true;
  options.overload.min_service_samples = 1u << 30;  // p50 never trusted.
  options.overload.shed_factor = 1e9;  // Would shed everything if trusted.
  serve::QueryServer server(&tc.index, options);
  server.Start();
  for (int i = 0; i < 5; ++i) {
    auto r = server.Execute(1, WideQuery(6));
    ASSERT_TRUE(r.ok()) << r.status().ToString();
  }
  server.Stop();
  EXPECT_EQ(server.StatsSnapshot().shed, 0u);
  EXPECT_EQ(server.StatsSnapshot().completed, 5u);
}

TEST(OverloadShedTest, DisabledOverloadNeverSheds) {
  TestCollection tc = MakeRandomCollection(919, 150, 6, 3);
  serve::ServerOptions options;
  options.num_threads = 1;
  options.io_delay_us_per_miss = 2000;
  options.deadline_us = 500;  // Tight — but measured from pickup.
  serve::QueryServer server(&tc.index, options);

  std::vector<std::future<Result<serve::QueryResponse>>> futures;
  for (int i = 0; i < 3; ++i) {
    auto submitted = server.Submit(1, WideQuery(6));
    ASSERT_TRUE(submitted.ok());
    futures.push_back(std::move(submitted).value());
  }
  fault::SleepUs(2000);
  server.Start();
  for (auto& f : futures) {
    Result<serve::QueryResponse> r = f.get();
    // Without overload control the deadline starts at pickup: queue
    // dwell is free, every query is evaluated (partial at worst).
    ASSERT_TRUE(r.ok()) << r.status().ToString();
  }
  server.Stop();
  EXPECT_EQ(server.StatsSnapshot().shed, 0u);
  EXPECT_EQ(server.StatsSnapshot().completed, 3u);
}

// ---- Brownout ladder: queue delay trims work before anything sheds. ----

TEST(OverloadBrownoutTest, QueueDelayEwmaTrimsTermsThenPages) {
  TestCollection tc = MakeRandomCollection(929, 220, 10, 3);
  serve::ServerOptions options;
  options.num_threads = 1;
  options.queue_depth = 16;
  options.buffer_pages = 8;
  options.deadline_us = 0;  // No deadline: isolate the ladder from sheds.
  options.overload.enabled = true;
  options.overload.ewma_alpha = 1.0;  // EWMA == last dwell: deterministic.
  options.overload.brownout_term_threshold_us = 500;
  options.overload.brownout_max_terms = 3;
  options.overload.brownout_page_threshold_us = 1u << 30;  // Rung 2 off.
  serve::QueryServer server(&tc.index, options);
  obs::MetricsRegistry registry;
  server.BindMetrics(&registry);

  // Two queries queued before Start: the first is dequeued with a dwell
  // well past the rung-1 threshold, so it runs term-trimmed.
  std::vector<std::future<Result<serve::QueryResponse>>> futures;
  for (int i = 0; i < 2; ++i) {
    auto submitted = server.Submit(1, WideQuery(10));
    ASSERT_TRUE(submitted.ok());
    futures.push_back(std::move(submitted).value());
  }
  fault::SleepUs(2000);
  server.Start();
  for (auto& f : futures) {
    Result<serve::QueryResponse> r = f.get();
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    const core::EvalResult& er = r.value().eval;
    // Rung 1: at most 3 of the 10 terms evaluated, the rest forfeited
    // into the quality bound — degraded, but answered and honest.
    EXPECT_TRUE(er.work_trimmed);
    EXPECT_TRUE(er.degraded);
    EXPECT_GT(er.quality_bound, 0.0);
  }
  server.Stop();
  EXPECT_GE(server.QueueDelayEwmaUs(), 500.0);
  EXPECT_GE(registry.CounterValue("serve.brownout_trim_terms"), 1u);
  EXPECT_EQ(registry.CounterValue("serve.brownout_trim_pages"), 0u);
  EXPECT_EQ(server.StatsSnapshot().shed, 0u);  // Trimmed, never dropped.
}

TEST(OverloadBrownoutTest, SecondRungCapsPagesPerTerm) {
  TestCollection tc = MakeRandomCollection(937, 220, 8, 3);
  serve::ServerOptions options;
  options.num_threads = 1;
  options.buffer_pages = 8;
  options.deadline_us = 0;
  options.overload.enabled = true;
  options.overload.ewma_alpha = 1.0;
  options.overload.brownout_term_threshold_us = 500;
  options.overload.brownout_max_terms = 8;  // Rung 1 armed but roomy.
  options.overload.brownout_page_threshold_us = 500;
  options.overload.brownout_max_pages_per_term = 1;
  serve::QueryServer server(&tc.index, options);
  obs::MetricsRegistry registry;
  server.BindMetrics(&registry);

  auto submitted = server.Submit(1, WideQuery(8));
  ASSERT_TRUE(submitted.ok());
  fault::SleepUs(2000);
  server.Start();
  Result<serve::QueryResponse> r = submitted.value().get();
  server.Stop();
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  const core::EvalResult& er = r.value().eval;
  // Rung 2: every term reads at most one page; the trimmed tail pages
  // are accounted like deadline-forfeited ones.
  EXPECT_TRUE(er.work_trimmed);
  EXPECT_GT(er.pages_trimmed, 0u);
  EXPECT_GT(er.quality_bound, 0.0);
  EXPECT_LE(er.pages_processed, 8u);  // <= one page per term.
  EXPECT_GE(registry.CounterValue("serve.brownout_trim_pages"), 1u);
}

TEST(OverloadBrownoutTest, IdleServerNeverBrownsOut) {
  TestCollection tc = MakeRandomCollection(941, 180, 8, 3);
  serve::ServerOptions options;
  options.num_threads = 2;
  options.overload.enabled = true;
  options.overload.brownout_term_threshold_us = 50'000;
  serve::QueryServer server(&tc.index, options);
  server.Start();
  // Closed-loop single client: dwell stays near zero, no rung engages.
  for (int i = 0; i < 6; ++i) {
    auto r = server.Execute(1, WideQuery(8));
    ASSERT_TRUE(r.ok());
    EXPECT_FALSE(r.value().eval.work_trimmed);
    EXPECT_FALSE(r.value().eval.degraded);
  }
  server.Stop();
  EXPECT_LT(server.QueueDelayEwmaUs(), 50'000.0);
}

// ---- The admission-bounce counter stays separate from sheds. ----

TEST(OverloadMetricSplitTest, AdmissionRejectionIsNotAShed) {
  TestCollection tc = MakeRandomCollection(947, 150, 6, 3);
  serve::ServerOptions options;
  options.num_threads = 1;
  options.queue_depth = 2;
  options.overload.enabled = true;
  options.deadline_us = 1'000'000;
  serve::QueryServer server(&tc.index, options);
  obs::MetricsRegistry registry;
  server.BindMetrics(&registry);

  // Not started: submissions past queue_depth bounce at admission.
  std::vector<std::future<Result<serve::QueryResponse>>> futures;
  size_t bounced = 0;
  for (int i = 0; i < 5; ++i) {
    auto submitted = server.Submit(1, WideQuery(6));
    if (submitted.ok()) {
      futures.push_back(std::move(submitted).value());
    } else {
      EXPECT_EQ(submitted.status().code(), StatusCode::kResourceExhausted);
      ++bounced;
    }
  }
  EXPECT_EQ(bounced, 3u);
  server.Start();
  for (auto& f : futures) (void)f.get();
  server.Stop();

  const serve::ServerStats stats = server.StatsSnapshot();
  EXPECT_EQ(stats.rejected, 3u);
  EXPECT_EQ(registry.CounterValue("serve.rejected_at_admission"), 3u);
  EXPECT_EQ(stats.shed + stats.completed, 2u);
}

}  // namespace
}  // namespace irbuf
