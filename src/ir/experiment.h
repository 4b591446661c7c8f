// The experiment harness shared by the bench binaries and integration
// tests: runs refinement sequences under a chosen (algorithm, replacement
// policy, buffer size) configuration with the paper's methodology —
// buffers cold at the start of each sequence, persistent across the
// refinements within it.

#ifndef IRBUF_IR_EXPERIMENT_H_
#define IRBUF_IR_EXPERIMENT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "buffer/policy_factory.h"
#include "core/filtering_evaluator.h"
#include "fault/resilient.h"
#include "index/inverted_index.h"
#include "obs/metrics.h"
#include "obs/span.h"
#include "util/status.h"
#include "workload/refinement.h"

namespace irbuf::ir {

/// Configuration of one sequence run.
struct SequenceRunOptions {
  /// false = DF, true = BAF.
  bool buffer_aware = false;
  buffer::PolicyKind policy = buffer::PolicyKind::kLru;
  size_t buffer_pages = 100;
  /// Persin's tuned constants (Section 4.1); set both to 0 for the safe
  /// full-evaluation baseline.
  double c_ins = 0.07;
  double c_add = 0.002;
  uint32_t top_n = 20;
  /// Optional observability hooks (not owned; must outlive the run).
  /// `span_recorder` receives the query record of the evaluator and the
  /// pool, each step's records tagged with the step index as their
  /// query; `metrics` is bound to the run's buffer pool and the index's
  /// disk for the duration of the run. Neither changes any result or
  /// counter.
  obs::SpanRecorder* span_recorder = nullptr;
  obs::MetricsRegistry* metrics = nullptr;
  /// Retry/backoff + circuit breaker installed on the run's buffer pool
  /// (the chaos harness and the CLI's --fault-spec runs turn this on).
  /// Disabled by default; a disabled run is byte-identical to one
  /// without the fault layer.
  fault::ResilienceOptions resilience;
  /// Per-query deadline in microseconds (0 = none), applied to every
  /// step's evaluation.
  uint64_t deadline_us = 0;
};

/// Per-refinement measurements.
struct StepResult {
  uint64_t disk_reads = 0;
  uint64_t pages_processed = 0;
  uint64_t postings_processed = 0;
  uint64_t accumulators = 0;
  /// Non-interpolated average precision against the topic's judgments
  /// (0 when no judgments were supplied).
  double avg_precision = 0.0;
  std::vector<core::ScoredDoc> top_docs;
  /// This step's buffer-pool activity (delta snapshot of the pool's
  /// BufferStats across the step; `buffer.misses == disk_reads`).
  buffer::BufferStats buffer;
  /// Degradation accounting copied from the step's EvalResult (all zero
  /// on a fault-free run).
  bool degraded = false;
  uint32_t pages_lost = 0;
  double quality_bound = 0.0;
  bool deadline_hit = false;
};

/// Whole-sequence measurements.
struct SequenceRunResult {
  std::vector<StepResult> steps;
  uint64_t total_disk_reads = 0;
  uint64_t total_postings_processed = 0;
  uint64_t max_accumulators = 0;
  double mean_avg_precision = 0.0;
  /// Steps that returned a degraded (partial) answer.
  uint32_t degraded_steps = 0;
  uint64_t total_pages_lost = 0;
};

/// Runs `sequence` start-to-finish on a cold buffer pool. `relevant` may
/// be empty (effectiveness is then reported as 0).
Result<SequenceRunResult> RunRefinementSequence(
    const index::InvertedIndex& index,
    const workload::RefinementSequence& sequence,
    const std::vector<DocId>& relevant, const SequenceRunOptions& options);

/// Renders one run's telemetry as a single JSON object: configuration,
/// totals, and per step disk reads, hit rate, eviction count, the s_max
/// trajectory and phase-transition / eviction events (the latter only
/// when the run was traced — pass the same recorder given to the run,
/// or nullptr for counters-only output). `label` names the run.
std::string SequenceTelemetryJson(const std::string& label,
                                  const SequenceRunOptions& options,
                                  const SequenceRunResult& result,
                                  const obs::SpanRecorder* span_recorder);

/// Runs one query on a cold pool sized so no replacement ever happens
/// (the single-query setting of Section 5.1.1). A non-null
/// `eval.span_recorder` records the evaluator and the pool, tagged as
/// query 0.
Result<core::EvalResult> RunColdQuery(const index::InvertedIndex& index,
                                      const core::Query& query,
                                      const core::EvalOptions& eval,
                                      buffer::PolicyKind policy =
                                          buffer::PolicyKind::kLru);

/// Total pages of the inverted lists of `query`'s terms (the x-axis of
/// the paper's Figure 3).
uint64_t TotalQueryPages(const index::InvertedIndex& index,
                         const core::Query& query);

/// Pages of the union of all terms across all steps of `sequence` — the
/// size at which adding buffers stops helping.
uint64_t SequenceWorkingSetPages(const index::InvertedIndex& index,
                                 const workload::RefinementSequence& seq);

}  // namespace irbuf::ir

#endif  // IRBUF_IR_EXPERIMENT_H_
