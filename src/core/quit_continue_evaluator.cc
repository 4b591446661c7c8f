#include "core/quit_continue_evaluator.h"

#include <vector>

#include "buffer/readahead_cursor.h"
#include "core/accumulator_set.h"
#include "core/scorer.h"
#include "core/top_n.h"

namespace irbuf::core {

Result<EvalResult> QuitContinueEvaluator::Evaluate(
    const Query& query, buffer::BufferPool* buffers) const {
  EvalResult result;
  if (query.empty()) return result;

  buffers->SetQueryContext(BuildQueryContext(query, index_->lexicon()));

  // Decreasing-idf order, as in DF's step 3.
  const index::Lexicon& lexicon = index_->lexicon();
  const std::vector<QueryTerm> order = DfTermOrder(query, lexicon);

  // Per-thread and reset per query, like FilteringEvaluator::Evaluate's.
  thread_local AccumulatorSet accumulators;
  accumulators.Clear();
  bool quit = false;

  obs::SpanRecorder* const spans = options_.span_recorder;
  // The accumulator budget starts in the "grow" phase; the transition to
  // "capped" (continue) or "quit" is recorded once, when first hit.
  bool limit_hit = false;

  for (const QueryTerm& qt : order) {
    if (quit) break;
    const index::TermInfo& info = lexicon.info(qt.term);
    const double wq = QueryTermWeight(qt.fq, info.idf);
    const uint64_t postings_before = result.postings_processed;
    obs::ScopedSpan term_span(spans, obs::SpanStage::kTermLoop, qt.term);
    // Quit/continue reads every page of the list in order (no threshold
    // clipping exists in this strategy), so the whole list is the plan.
    buffer::ReadaheadCursor readahead(buffers, qt.term,
                                      buffers->PrefetchDepth(), info.pages);
    for (uint32_t page_no = 0; page_no < info.pages && !quit; ++page_no) {
      readahead.BeforeFetch(page_no);
      Result<buffer::PinnedPage> page =
          buffers->FetchPinned(PageId{qt.term, page_no});
      if (!page.ok()) return page.status();
      ++result.pages_processed;
      if (page.value().was_miss()) ++result.disk_reads;
      const storage::PostingBlock& block = page.value()->block;
      for (const storage::PostingRun& run : block.runs) {
        if (quit) break;
        // Hoisted per run: all postings in a run share f_{d,t}.
        const double partial = DocTermWeight(run.freq, info.idf) * wq;
        // LINT-HOT-LOOP: quit/continue run scan.
        for (uint32_t i = run.begin; i < run.end; ++i) {
          ++result.postings_processed;
          const DocId doc = block.doc_ids[i];
          double* a = accumulators.FindOrNull(doc);
          if (a == nullptr) {
            if (accumulators.size() >= options_.accumulator_limit) {
              if (spans != nullptr && !limit_hit) {
                limit_hit = true;
                // The limit_hit latch makes this instant fire at most
                // once per query, so the recorder's push_back is off
                // the steady-state posting path.
                // irbuf-analyzer: allow(hot-alloc-ast)
                spans->RecordInstant(
                    {.term = qt.term,
                     .stage = obs::SpanStage::kPhase,
                     .note = options_.mode == LimitMode::kQuit
                                 ? "grow->quit"
                                 : "grow->capped"});
              }
              if (options_.mode == LimitMode::kQuit) {
                quit = true;
                break;
              }
              continue;  // kContinue: no new candidates, keep updating.
            }
            a = &accumulators.Insert(doc, 0.0);
          }
          *a += partial;
        }
        // LINT-HOT-LOOP-END
      }
    }
    if (obs::Span* record = term_span.record()) {
      record->page_no = info.pages;
      record->n = result.postings_processed - postings_before;
      record->m = accumulators.size();
    }
  }

  result.top_docs = SelectTopN(accumulators, *index_, options_.top_n);
  result.accumulators = accumulators.size();
  return result;
}

}  // namespace irbuf::core
