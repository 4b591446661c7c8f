#include "ir/experiment.h"

#include <gtest/gtest.h>

#include <vector>

#include "../core/test_index.h"
#include "fault/fault_injector.h"
#include "obs/span.h"
#include "workload/refinement.h"

namespace irbuf::ir {
namespace {

class ExperimentTest : public ::testing::Test {
 protected:
  void SetUp() override {
    tc_.emplace(core::MakeRandomCollection(99, 400, 12, 4));
    core::Query q;
    for (TermId t = 0; t < 12; ++t) q.AddTerm(t, 1 + t % 2);
    auto seq = workload::BuildRefinementSequence(
        "test", q, tc_->index, workload::RefinementKind::kAddOnly);
    ASSERT_TRUE(seq.ok());
    sequence_ = std::move(seq).value();
  }

  std::optional<core::TestCollection> tc_;
  workload::RefinementSequence sequence_;
};

TEST_F(ExperimentTest, RunsAllSteps) {
  SequenceRunOptions options;
  options.buffer_pages = 8;
  auto result = RunRefinementSequence(tc_->index, sequence_, {}, options);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value().steps.size(), sequence_.steps.size());
  uint64_t sum = 0;
  for (const StepResult& s : result.value().steps) sum += s.disk_reads;
  EXPECT_EQ(sum, result.value().total_disk_reads);
  EXPECT_GT(result.value().total_disk_reads, 0u);
}

TEST_F(ExperimentTest, UnlimitedBuffersNeverRereadWithin) {
  // With buffers >= working set, total reads equal the working set size
  // (each page read exactly once across the whole ADD-ONLY sequence).
  uint64_t ws = SequenceWorkingSetPages(tc_->index, sequence_);
  SequenceRunOptions options;
  options.buffer_pages = ws + 4;
  options.c_ins = 0.0;  // Full evaluation: every page touched.
  options.c_add = 0.0;
  auto result = RunRefinementSequence(tc_->index, sequence_, {}, options);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value().total_disk_reads, ws);
}

TEST_F(ExperimentTest, MoreBuffersNeverHurtLru) {
  SequenceRunOptions small;
  small.buffer_pages = 4;
  SequenceRunOptions big;
  big.buffer_pages = 64;
  auto r_small = RunRefinementSequence(tc_->index, sequence_, {}, small);
  auto r_big = RunRefinementSequence(tc_->index, sequence_, {}, big);
  ASSERT_TRUE(r_small.ok());
  ASSERT_TRUE(r_big.ok());
  EXPECT_LE(r_big.value().total_disk_reads,
            r_small.value().total_disk_reads);
}

TEST_F(ExperimentTest, EffectivenessReportedWhenJudgmentsGiven) {
  std::vector<DocId> relevant;
  // Use the full-eval top docs of the final query as "relevant".
  core::EvalOptions full;
  full.c_ins = 0.0;
  full.c_add = 0.0;
  auto gold = RunColdQuery(tc_->index, sequence_.steps.back().query, full);
  ASSERT_TRUE(gold.ok());
  for (const core::ScoredDoc& sd : gold.value().top_docs) {
    relevant.push_back(sd.doc);
  }
  std::sort(relevant.begin(), relevant.end());

  SequenceRunOptions options;
  options.buffer_pages = 16;
  auto result =
      RunRefinementSequence(tc_->index, sequence_, relevant, options);
  ASSERT_TRUE(result.ok());
  EXPECT_GT(result.value().mean_avg_precision, 0.0);
  EXPECT_GT(result.value().steps.back().avg_precision, 0.0);
}

TEST_F(ExperimentTest, TotalQueryPagesSumsLexicon) {
  core::Query q;
  q.AddTerm(0);
  q.AddTerm(3);
  uint64_t expected = tc_->index.lexicon().info(0).pages +
                      tc_->index.lexicon().info(3).pages;
  EXPECT_EQ(TotalQueryPages(tc_->index, q), expected);
}

TEST_F(ExperimentTest, WorkingSetCountsDistinctTermsOnce) {
  uint64_t ws = SequenceWorkingSetPages(tc_->index, sequence_);
  // ADD-ONLY's last step contains every term of the sequence.
  EXPECT_EQ(ws, TotalQueryPages(tc_->index, sequence_.steps.back().query));
}

TEST_F(ExperimentTest, ColdQueryIsReproducible) {
  core::EvalOptions eval;
  auto a = RunColdQuery(tc_->index, sequence_.steps[1].query, eval);
  auto b = RunColdQuery(tc_->index, sequence_.steps[1].query, eval);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a.value().disk_reads, b.value().disk_reads);
  ASSERT_EQ(a.value().top_docs.size(), b.value().top_docs.size());
  for (size_t i = 0; i < a.value().top_docs.size(); ++i) {
    EXPECT_EQ(a.value().top_docs[i].doc, b.value().top_docs[i].doc);
  }
}

// ---- Fault events in the trace: the pool tags retries and breaker
// rejections onto the run's kMissRead records. ----

/// The demand miss reads `recorder` saw, in start order.
std::vector<obs::Span> MissReads(const obs::SpanRecorder& recorder) {
  std::vector<obs::Span> out;
  for (const obs::Span& s : obs::MergedTimeline(recorder.Snapshot())) {
    if (s.stage == obs::SpanStage::kMissRead) out.push_back(s);
  }
  return out;
}

SequenceRunOptions TracedResilientRun(obs::SpanRecorder* recorder) {
  SequenceRunOptions options;
  options.buffer_pages = 8;
  options.span_recorder = recorder;
  options.resilience.enabled = true;
  options.resilience.sleep_on_backoff = false;  // Drawn, not slept.
  return options;
}

TEST_F(ExperimentTest, TraceRecordsRecoveredRetry) {
  // Exactly one transient read error: the first miss fails once, and
  // its retry succeeds.
  fault::FaultSpec spec;
  fault::FaultRule transient{fault::FaultKind::kTransientRead, 1.0};
  transient.max_faults = 1;
  spec.rules.push_back(transient);
  fault::FaultInjector injector(spec);
  tc_->index.disk().SetFaultInjector(&injector);
  obs::SpanRecorder recorder;
  auto result = RunRefinementSequence(tc_->index, sequence_, {},
                                      TracedResilientRun(&recorder));
  tc_->index.disk().SetFaultInjector(nullptr);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value().degraded_steps, 0u);

  size_t retries = 0;
  size_t rejected = 0;
  for (const obs::Span& s : MissReads(recorder)) {
    if (s.note != nullptr) ++rejected;
    if (s.n < 2) continue;
    ++retries;
    EXPECT_TRUE(s.hit);     // Recovered.
    EXPECT_EQ(s.n, 2u);     // One failed attempt, one good one.
  }
  EXPECT_EQ(retries, 1u);
  EXPECT_EQ(rejected, 0u);
}

TEST_F(ExperimentTest, TraceRecordsBreakerRejections) {
  // The device is down for the whole run: every attempt fails, the
  // breaker trips after its minimum sample, and later misses are
  // rejected without touching the device.
  fault::FaultSpec spec;
  spec.rules.push_back({fault::FaultKind::kTransientRead, 1.0});
  fault::FaultInjector injector(spec);
  tc_->index.disk().SetFaultInjector(&injector);
  obs::SpanRecorder recorder;
  SequenceRunOptions options = TracedResilientRun(&recorder);
  options.resilience.breaker.open_cooldown_us = 600'000'000;  // Stays open.
  auto result = RunRefinementSequence(tc_->index, sequence_, {}, options);
  tc_->index.disk().SetFaultInjector(nullptr);
  ASSERT_TRUE(result.ok());
  EXPECT_GT(result.value().total_pages_lost, 0u);

  size_t rejected = 0;
  size_t exhausted = 0;
  for (const obs::Span& s : MissReads(recorder)) {
    if (s.note != nullptr) {
      EXPECT_STREQ(s.note, "rejected");
      EXPECT_FALSE(s.hit);
      ++rejected;
    } else if (s.n >= 2 && !s.hit) {
      // Reads made before the trip exhausted their retries unrecovered.
      ++exhausted;
    }
  }
  EXPECT_GT(rejected, 0u);
  EXPECT_GT(exhausted, 0u);
}

}  // namespace
}  // namespace irbuf::ir
