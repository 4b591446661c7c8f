#include "ir/ir_system.h"

namespace irbuf::ir {

IrSystem::IrSystem(const index::InvertedIndex* index, IrSystemOptions options)
    : index_(index),
      options_(options),
      buffers_(std::make_unique<serve::ConcurrentBufferPool>(
          &index->disk(),
          serve::PoolOptions(options.buffer_pages, options.policy))),
      evaluator_(index, options.eval) {}

Result<core::EvalResult> IrSystem::Search(const core::Query& query) {
  return evaluator_.Evaluate(query, buffers_.get());
}

Result<core::EvalResult> IrSystem::Search(
    const std::string& text, const text::AnalysisPipeline& pipeline) {
  return Search(core::Query::Parse(text, pipeline, index_->lexicon()));
}

void IrSystem::SetTracer(obs::QueryTracer* tracer) {
  buffers_->SetTracer(tracer);
  // The evaluator carries its options by value; rebuild it with the
  // tracer installed (construction is cheap — two pointers).
  core::EvalOptions eval = options_.eval;
  eval.tracer = tracer;
  options_.eval = eval;
  evaluator_ = core::FilteringEvaluator(index_, eval);
}

void IrSystem::BindMetrics(obs::MetricsRegistry* registry) {
  buffers_->BindMetrics(registry);
  index_->disk().BindMetrics(registry);
}

}  // namespace irbuf::ir
