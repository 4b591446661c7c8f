#include "ir/experiment.h"

#include <algorithm>
#include <unordered_set>

#include "metrics/effectiveness.h"
#include "obs/json.h"
#include "serve/concurrent_buffer_pool.h"

namespace irbuf::ir {

Result<SequenceRunResult> RunRefinementSequence(
    const index::InvertedIndex& index,
    const workload::RefinementSequence& sequence,
    const std::vector<DocId>& relevant, const SequenceRunOptions& options) {
  core::EvalOptions eval;
  eval.c_ins = options.c_ins;
  eval.c_add = options.c_add;
  eval.top_n = options.top_n;
  eval.buffer_aware = options.buffer_aware;
  eval.record_trace = false;
  eval.tracer = options.tracer;
  core::FilteringEvaluator evaluator(&index, eval);

  serve::ConcurrentPoolOptions pool_options =
      serve::PoolOptions(options.buffer_pages, options.policy);
  pool_options.resilience = options.resilience;
  serve::ConcurrentBufferPool buffers(&index.disk(), pool_options);
  buffers.SetTracer(options.tracer);
  if (options.metrics != nullptr) {
    buffers.BindMetrics(options.metrics);
    index.disk().BindMetrics(options.metrics);
  }

  SequenceRunResult result;
  double precision_sum = 0.0;
  for (size_t step_index = 0; step_index < sequence.steps.size();
       ++step_index) {
    const workload::RefinementStep& step = sequence.steps[step_index];
    if (options.tracer != nullptr) {
      options.tracer->BeginStep(static_cast<uint32_t>(step_index));
    }
    const buffer::BufferStats pool_before = buffers.StatsSnapshot();
    core::EvalControl control;
    const core::EvalControl* control_ptr = nullptr;
    if (options.deadline_us > 0) {
      control.deadline_us = fault::MonotonicNowUs() + options.deadline_us;
      control_ptr = &control;
    }
    Result<core::EvalResult> eval_result =
        evaluator.Evaluate(step.query, &buffers, control_ptr);
    if (!eval_result.ok()) return eval_result.status();
    core::EvalResult& er = eval_result.value();

    StepResult sr;
    sr.disk_reads = er.disk_reads;
    sr.pages_processed = er.pages_processed;
    sr.postings_processed = er.postings_processed;
    sr.accumulators = er.accumulators;
    const buffer::BufferStats pool_after = buffers.StatsSnapshot();
    sr.buffer.fetches = pool_after.fetches - pool_before.fetches;
    sr.buffer.hits = pool_after.hits - pool_before.hits;
    sr.buffer.misses = pool_after.misses - pool_before.misses;
    sr.buffer.evictions = pool_after.evictions - pool_before.evictions;
    if (!relevant.empty()) {
      sr.avg_precision = metrics::AveragePrecision(er.top_docs, relevant);
    }
    sr.degraded = er.degraded;
    sr.pages_lost = er.pages_lost;
    sr.quality_bound = er.quality_bound;
    sr.deadline_hit = er.deadline_hit;
    if (er.degraded) ++result.degraded_steps;
    result.total_pages_lost += er.pages_lost;
    sr.top_docs = std::move(er.top_docs);

    result.total_disk_reads += sr.disk_reads;
    result.total_postings_processed += sr.postings_processed;
    result.max_accumulators = std::max(result.max_accumulators,
                                       sr.accumulators);
    precision_sum += sr.avg_precision;
    result.steps.push_back(std::move(sr));
  }
  if (!result.steps.empty()) {
    result.mean_avg_precision =
        precision_sum / static_cast<double>(result.steps.size());
  }
  // The pool dies with this run; leave the registry with final counts but
  // no dangling bindings.
  if (options.metrics != nullptr) index.disk().BindMetrics(nullptr);
  return result;
}

std::string SequenceTelemetryJson(const std::string& label,
                                  const SequenceRunOptions& options,
                                  const SequenceRunResult& result,
                                  const obs::QueryTracer* tracer) {
  obs::JsonWriter w;
  w.BeginObject();
  w.Key("label").Str(label);
  w.Key("algorithm").Str(options.buffer_aware ? "BAF" : "DF");
  w.Key("policy").Str(buffer::PolicyKindName(options.policy));
  w.Key("buffer_pages").UInt(options.buffer_pages);
  w.Key("c_ins").Num(options.c_ins);
  w.Key("c_add").Num(options.c_add);
  w.Key("total_disk_reads").UInt(result.total_disk_reads);
  w.Key("total_postings").UInt(result.total_postings_processed);
  w.Key("max_accumulators").UInt(result.max_accumulators);
  w.Key("mean_avg_precision").Num(result.mean_avg_precision);
  w.Key("degraded_steps").UInt(result.degraded_steps);
  w.Key("total_pages_lost").UInt(result.total_pages_lost);
  w.Key("steps").BeginArray();
  for (size_t i = 0; i < result.steps.size(); ++i) {
    const StepResult& sr = result.steps[i];
    w.BeginObject();
    w.Key("step").UInt(i);
    w.Key("disk_reads").UInt(sr.disk_reads);
    w.Key("pages_processed").UInt(sr.pages_processed);
    w.Key("postings").UInt(sr.postings_processed);
    w.Key("accumulators").UInt(sr.accumulators);
    w.Key("avg_precision").Num(sr.avg_precision);
    w.Key("fetches").UInt(sr.buffer.fetches);
    w.Key("hits").UInt(sr.buffer.hits);
    w.Key("hit_rate").Num(sr.buffer.HitRate());
    w.Key("evictions").UInt(sr.buffer.evictions);
    if (sr.degraded) {
      w.Key("degraded").Bool(true);
      w.Key("pages_lost").UInt(sr.pages_lost);
      w.Key("quality_bound").Num(sr.quality_bound);
      w.Key("deadline_hit").Bool(sr.deadline_hit);
    }
    if (tracer != nullptr) {
      const uint32_t step = static_cast<uint32_t>(i);
      w.Key("smax_trajectory").BeginArray();
      for (double s : tracer->SmaxTrajectory(step)) w.Num(s);
      w.EndArray();
      w.Key("phase_transitions").BeginArray();
      for (const obs::TraceEvent& e : tracer->events()) {
        if (e.step != step || e.kind != obs::TraceEventKind::kPhase) {
          continue;
        }
        w.BeginObject();
        w.Key("term").UInt(e.term);
        w.Key("transition").Str(e.phase != nullptr ? e.phase : "");
        w.EndObject();
      }
      w.EndArray();
      w.Key("eviction_events").BeginArray();
      for (const obs::TraceEvent& e : tracer->events()) {
        if (e.step != step || e.kind != obs::TraceEventKind::kEvict) {
          continue;
        }
        w.BeginObject();
        w.Key("term").UInt(e.term);
        w.Key("page").UInt(e.page_no);
        w.Key("max_weight").Num(e.a);
        w.Key("value").Num(e.b);
        w.Key("age").UInt(e.n);
        w.EndObject();
      }
      w.EndArray();
    }
    w.EndObject();
  }
  w.EndArray();
  w.EndObject();
  return std::move(w).Take();
}

Result<core::EvalResult> RunColdQuery(const index::InvertedIndex& index,
                                      const core::Query& query,
                                      const core::EvalOptions& eval,
                                      buffer::PolicyKind policy,
                                      obs::QueryTracer* tracer) {
  uint64_t pages = std::max<uint64_t>(1, TotalQueryPages(index, query));
  serve::ConcurrentBufferPool buffers(&index.disk(),
                                      serve::PoolOptions(pages, policy));
  buffers.SetTracer(tracer);
  core::EvalOptions traced_eval = eval;
  traced_eval.tracer = tracer;
  core::FilteringEvaluator evaluator(&index, traced_eval);
  return evaluator.Evaluate(query, &buffers);
}

uint64_t TotalQueryPages(const index::InvertedIndex& index,
                         const core::Query& query) {
  uint64_t total = 0;
  for (const core::QueryTerm& qt : query.terms()) {
    total += index.lexicon().info(qt.term).pages;
  }
  return total;
}

uint64_t SequenceWorkingSetPages(const index::InvertedIndex& index,
                                 const workload::RefinementSequence& seq) {
  std::unordered_set<TermId> terms;
  for (const workload::RefinementStep& step : seq.steps) {
    for (const core::QueryTerm& qt : step.query.terms()) {
      terms.insert(qt.term);
    }
  }
  uint64_t total = 0;
  for (TermId t : terms) total += index.lexicon().info(t).pages;
  return total;
}

}  // namespace irbuf::ir
