#include "ir/ir_system.h"

namespace irbuf::ir {

namespace {

serve::ConcurrentPoolOptions SystemPoolOptions(
    const IrSystemOptions& options) {
  serve::ConcurrentPoolOptions pool =
      serve::PoolOptions(options.buffer_pages, options.policy);
  pool.span_recorder = options.eval.span_recorder;
  return pool;
}

}  // namespace

IrSystem::IrSystem(const index::InvertedIndex* index, IrSystemOptions options)
    : index_(index),
      options_(options),
      buffers_(std::make_unique<serve::ConcurrentBufferPool>(
          &index->disk(), SystemPoolOptions(options))),
      evaluator_(index, options.eval) {}

Result<core::EvalResult> IrSystem::Search(const core::Query& query) {
  return evaluator_.Evaluate(query, buffers_.get());
}

Result<core::EvalResult> IrSystem::Search(
    const std::string& text, const text::AnalysisPipeline& pipeline) {
  return Search(core::Query::Parse(text, pipeline, index_->lexicon()));
}

void IrSystem::BindMetrics(obs::MetricsRegistry* registry) {
  buffers_->BindMetrics(registry);
  index_->disk().BindMetrics(registry);
}

}  // namespace irbuf::ir
