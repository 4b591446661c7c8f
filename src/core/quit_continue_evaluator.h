// The Quit and Continue heuristics of Moffat & Zobel ("Fast ranking in
// limited space", ICDE 1994 — [MZ94] in the paper): instead of filtering
// by partial-score thresholds, these bound memory directly with a hard
// accumulator limit L.
//
//   Quit:     processing stops altogether the moment L accumulators
//             exist — remaining postings and whole remaining lists are
//             never read.
//   Continue: once L is reached no *new* accumulators are created, but
//             all remaining lists are still read so existing candidates
//             accumulate their full scores.
//
// Implemented as the "other query processing algorithms" the paper lists
// as future work; works on both frequency-sorted and document-ordered
// indexes (it never relies on within-list order).

#ifndef IRBUF_CORE_QUIT_CONTINUE_EVALUATOR_H_
#define IRBUF_CORE_QUIT_CONTINUE_EVALUATOR_H_

#include "buffer/buffer_pool.h"
#include "core/filtering_evaluator.h"
#include "core/query.h"
#include "index/inverted_index.h"
#include "util/status.h"

namespace irbuf::core {

/// What happens when the accumulator limit is hit.
enum class LimitMode { kQuit, kContinue };

/// Tuning of the quit/continue evaluators.
struct QuitContinueOptions {
  /// Hard bound on the candidate set size (the paper's memory metric).
  size_t accumulator_limit = 5000;
  LimitMode mode = LimitMode::kContinue;
  uint32_t top_n = 20;
  /// Optional query record (obs/span.h): a kTermLoop span per term
  /// (list length, postings, accumulator-set size after it) and the
  /// one grow->capped / grow->quit kPhase instant. Not owned; nullptr =
  /// untraced (no behavior change either way).
  obs::SpanRecorder* span_recorder = nullptr;
};

/// Evaluates vector-space queries under a hard accumulator budget.
class QuitContinueEvaluator {
 public:
  QuitContinueEvaluator(const index::InvertedIndex* index,
                        QuitContinueOptions options)
      : index_(index), options_(options) {}

  /// Runs one query; terms are processed in decreasing-idf order, like
  /// DF, so the most selective terms claim the accumulator budget first.
  Result<EvalResult> Evaluate(const Query& query,
                              buffer::BufferPool* buffers) const;

  const QuitContinueOptions& options() const { return options_; }

 private:
  const index::InvertedIndex* index_;
  QuitContinueOptions options_;
};

}  // namespace irbuf::core

#endif  // IRBUF_CORE_QUIT_CONTINUE_EVALUATOR_H_
