// IrSystem: the one-stop public facade. Wraps an inverted index with a
// buffer pool and a filtering evaluator, so applications can search and
// refine without wiring the substrates together themselves.
//
//   auto corpus = corpus::GenerateSyntheticCorpus({.scale = 0.01});
//   ir::IrSystemOptions opts;
//   opts.buffer_pages = 100;
//   opts.policy = buffer::PolicyKind::kRap;
//   opts.eval.buffer_aware = true;               // BAF
//   ir::IrSystem system(&corpus.value()->index(), opts);
//   auto result = system.Search(query);

#ifndef IRBUF_IR_IR_SYSTEM_H_
#define IRBUF_IR_IR_SYSTEM_H_

#include <memory>
#include <string>

#include "buffer/policy_factory.h"
#include "core/filtering_evaluator.h"
#include "core/query.h"
#include "index/inverted_index.h"
#include "obs/metrics.h"
#include "obs/query_tracer.h"
#include "serve/concurrent_buffer_pool.h"
#include "text/pipeline.h"
#include "util/status.h"

namespace irbuf::ir {

/// Configuration of an IrSystem instance.
struct IrSystemOptions {
  /// Buffer pool capacity, in pages.
  size_t buffer_pages = 100;
  /// Replacement policy.
  buffer::PolicyKind policy = buffer::PolicyKind::kLru;
  /// Evaluator tuning (DF vs BAF, thresholds, answer size).
  core::EvalOptions eval;
};

/// A ready-to-query retrieval system over a prebuilt index.
class IrSystem {
 public:
  /// The index must outlive the system.
  IrSystem(const index::InvertedIndex* index, IrSystemOptions options);

  /// Evaluates a query. Buffer contents persist across calls (that is the
  /// point); call FlushBuffers() to simulate a cold start.
  Result<core::EvalResult> Search(const core::Query& query);

  /// Parses free text through `pipeline` and evaluates it.
  Result<core::EvalResult> Search(const std::string& text,
                                  const text::AnalysisPipeline& pipeline);

  /// Empties the buffer pool (the paper does this between sequences).
  void FlushBuffers() { buffers_->Flush(); }

  /// Installs (or clears, with nullptr) a tracer on both the evaluator
  /// and the buffer pool, so one timeline carries evaluation events and
  /// fetch/eviction events. Tracing never changes results.
  void SetTracer(obs::QueryTracer* tracer);

  /// Binds the system's buffer pool and disk to `registry` (see
  /// ConcurrentBufferPool::BindMetrics / SimulatedDisk::BindMetrics);
  /// nullptr unbinds both.
  void BindMetrics(obs::MetricsRegistry* registry);

  const serve::ConcurrentBufferPool& buffers() const { return *buffers_; }
  serve::ConcurrentBufferPool* mutable_buffers() { return buffers_.get(); }
  const index::InvertedIndex& index() const { return *index_; }
  const IrSystemOptions& options() const { return options_; }

 private:
  const index::InvertedIndex* index_;
  IrSystemOptions options_;
  std::unique_ptr<serve::ConcurrentBufferPool> buffers_;
  core::FilteringEvaluator evaluator_;
};

}  // namespace irbuf::ir

#endif  // IRBUF_IR_IR_SYSTEM_H_
