#include "core/filtering_evaluator.h"

#include <algorithm>

#include "buffer/readahead_cursor.h"
#include "core/scorer.h"
#include "core/top_n.h"
#include "fault/backoff.h"

namespace irbuf::core {

std::vector<QueryTerm> DfTermOrder(const Query& query,
                                   const index::Lexicon& lexicon) {
  std::vector<QueryTerm> order = query.terms();
  std::sort(order.begin(), order.end(),
            [&lexicon](const QueryTerm& a, const QueryTerm& b) {
              const index::TermInfo& ia = lexicon.info(a.term);
              const index::TermInfo& ib = lexicon.info(b.term);
              if (ia.idf != ib.idf) return ia.idf > ib.idf;
              if (ia.pages != ib.pages) return ia.pages < ib.pages;
              return a.term < b.term;
            });
  return order;
}

Status FilteringEvaluator::ProcessTerm(const QueryTerm& qt,
                                       buffer::BufferPool* buffers,
                                       AccumulatorSet* accumulators,
                                       double* smax, EvalResult* result,
                                       const EvalControl* control) const {
  obs::ScopedSpan term_span(options_.span_recorder,
                            obs::SpanStage::kTermLoop, qt.term);
  const index::TermInfo& info = index_->lexicon().info(qt.term);
  const Thresholds th = ComputeThresholds(options_.c_ins, options_.c_add,
                                          *smax, qt.fq, info.idf);
  obs::SpanRecorder* const spans = options_.span_recorder;
  TermTrace trace;
  trace.term = qt.term;
  trace.idf = info.idf;
  trace.total_pages = info.pages;
  trace.smax_before = *smax;
  trace.f_ins = th.f_ins;
  trace.f_add = th.f_add;
  // The term's row of the paper's Tables 1-2, on its kTermLoop record.
  const auto close_term_record = [&](bool skipped) {
    if (obs::Span* record = term_span.record()) {
      record->hit = skipped;
      record->page_no = info.pages;
      record->a = th.f_ins;
      record->b = th.f_add;
      record->c = *smax;
      record->n = trace.postings_processed;
      record->m = accumulators->size();
    }
  };

  // Step 4b / 3c: when even the term's highest frequency cannot pass the
  // addition threshold, no posting can contribute — skip the whole list
  // without any read.
  const bool below_add = static_cast<double>(info.fmax) <= th.f_add;
  if (below_add && !options_.always_read_first_page) {
    trace.skipped = true;
    trace.smax_after = *smax;
    ++result->terms_skipped;
    if (options_.record_trace) result->trace.push_back(trace);
    close_term_record(/*skipped=*/true);
    return Status::OK();
  }

  const double wq = QueryTermWeight(qt.fq, info.idf);

  // The early-exit of step 4(c)iv is only sound on frequency-sorted
  // lists; on a document-ordered index (the traditional layout the paper
  // contrasts against in footnote 14), low-frequency postings may be
  // followed by high-frequency ones, so the whole list must be scanned.
  const bool can_stop_early =
      index_->order() == index::IndexListOrder::kFrequencySorted;

  // Brownout rung 2: the page budget truncates the list like an early
  // f_add stop would, except the forfeited tail is accounted below.
  const uint32_t page_cap =
      (control != nullptr && control->max_pages_per_term > 0 &&
       control->max_pages_per_term < info.pages)
          ? control->max_pages_per_term
          : info.pages;

  // Readahead: the page loop below fetches pages 0..page_cap of this
  // term in order — evaluation knows its future — so the cursor keeps
  // the pool's readahead depth of those pages hinted ahead of each
  // fetch. On frequency-sorted lists the plan is clipped at the
  // conversion table's PagesToProcess bound: pages the f_add threshold
  // (at the current Smax) proves the scan can never reach are not worth
  // reading ahead. Clipping is rank-safe because a hint is only a hint —
  // every page actually touched still arrives through FetchPinned below,
  // and Smax only grows, so the bound only overestimates the pages the
  // scan will demand. With depth 0 the clip is never computed.
  const size_t depth = buffers->PrefetchDepth();
  buffer::ReadaheadCursor readahead(
      buffers, qt.term, depth,
      depth == 0 || !can_stop_early
          ? page_cap
          : std::min(page_cap, index_->conversion_table().PagesToProcess(
                                   qt.term, th.f_add, info.pages, info.fmax)));

  bool stop = false;
  // Phase tracking for the kPhase instants: "ins" while postings pass f_ins,
  // "add" once they only pass f_add, "drop" when processing stops.
  // Frequencies are nonincreasing within a list, so phases never revert.
  const char* phase = "ins";
  for (uint32_t page_no = 0; page_no < page_cap && !stop; ++page_no) {
    readahead.BeforeFetch(page_no);
    // The pin is scoped to this iteration: released before the next
    // page is fetched, so at most one page per query is pinned and
    // victim selection at fetch time sees no pins from this reader.
    // The pool records the kPagePin span, tagged hit or miss.
    Result<buffer::PinnedPage> page =
        buffers->FetchPinned(PageId{qt.term, page_no});
    if (!page.ok()) {
      const StatusCode code = page.status().code();
      const bool device_fault = code == StatusCode::kUnavailable ||
                                code == StatusCode::kCorrupted ||
                                code == StatusCode::kIOError;
      // Logic errors (all frames pinned, unknown page, policy bug)
      // still fail the query; only device-level losses degrade.
      if (!device_fault) return page.status();
      // Degrade: forfeit the page like a threshold-skipped tail. Each
      // of its postings could have contributed at most
      // page_max_weight * w_{q,t} to one document, and the page's max
      // weight is catalog metadata, readable without a device read.
      const double bound =
          index_->disk().PageMaxWeight(PageId{qt.term, page_no}) * wq;
      ++trace.pages_lost;
      result->quality_bound += bound;
      if (spans != nullptr) {
        spans->RecordInstant({.term = qt.term,
                              .stage = obs::SpanStage::kPageLost,
                              .page_no = page_no,
                              .a = bound});
      }
      continue;
    }
    ++trace.pages_processed;
    if (page.value().was_miss()) ++trace.pages_read;
    const double page_smax_before = *smax;

    // The "easy fix" flag forces the entire first page to contribute, so a
    // term added during refinement can never be silently ignored.
    const bool unconditional =
        options_.always_read_first_page && page_no == 0;

    // Threshold decisions are per-run, not per-posting: every posting in
    // a run shares f_{d,t}, so its branch — and its contribution
    // w_{d,t} * w_{q,t} — is computed once per run and the per-doc loops
    // below touch only the SoA doc_ids[].
    const storage::PostingBlock& block = page.value()->block;
    // One kAccumulate span per fetched page (the span sits outside the
    // run scans, so the hot loops themselves stay untouched).
    obs::ScopedSpan accumulate_span(options_.span_recorder,
                                    obs::SpanStage::kAccumulate, qt.term);
    for (const storage::PostingRun& run : block.runs) {
      const double f = static_cast<double>(run.freq);
      if (unconditional || f > th.f_ins) {
        // Steps 4(c)i-ii: candidate insertion.
        const double partial = DocTermWeight(run.freq, info.idf) * wq;
        // LINT-HOT-LOOP: DF/BAF insert-mode run scan.
        for (uint32_t i = run.begin; i < run.end; ++i) {
          ++trace.postings_processed;
          double& a = accumulators->FindOrInsert(block.doc_ids[i]);
          a += partial;
          if (a > *smax) *smax = a;
        }
        // LINT-HOT-LOOP-END
      } else if (f > th.f_add) {
        if (spans != nullptr && phase[0] == 'i') {
          spans->RecordInstant({.term = qt.term,
                                .stage = obs::SpanStage::kPhase,
                                .note = "ins->add"});
          phase = "add";
        }
        // Step 4(c)iii: contribute only to existing candidates.
        const double partial = DocTermWeight(run.freq, info.idf) * wq;
        // LINT-HOT-LOOP: DF/BAF add-mode run scan.
        for (uint32_t i = run.begin; i < run.end; ++i) {
          ++trace.postings_processed;
          if (double* a = accumulators->FindOrNull(block.doc_ids[i])) {
            *a += partial;
            if (*a > *smax) *smax = *a;
          }
        }
        // LINT-HOT-LOOP-END
      } else if (can_stop_early) {
        // Step 4(c)iv: frequency-sorted order guarantees no later posting
        // can pass the addition threshold. The posting that triggers the
        // stop is counted as processed, exactly as the per-posting loop
        // counted it.
        ++trace.postings_processed;
        if (spans != nullptr) {
          spans->RecordInstant(
              {.term = qt.term,
               .stage = obs::SpanStage::kPhase,
               .note = phase[0] == 'i' ? "ins->drop" : "add->drop"});
        }
        stop = true;
        break;
      } else {
        // Document-ordered list below f_add: every posting is examined
        // (and counted) but none can contribute.
        trace.postings_processed += run.end - run.begin;
      }
    }
    if (unconditional && below_add) stop = true;
    // One Smax instant per page that moved it (posting granularity
    // would swamp the record; page granularity preserves the trajectory).
    if (spans != nullptr && *smax != page_smax_before) {
      spans->RecordInstant({.term = qt.term,
                            .stage = obs::SpanStage::kSmax,
                            .a = page_smax_before,
                            .b = *smax});
    }
  }

  // Pages the budget kept us from reading: each could have contributed
  // at most page_max_weight * w_{q,t} per posting-touched document —
  // the same replacement-value bound a lost page gets. An early f_add
  // stop makes the tail worthless anyway, so no bound accrues then.
  if (!stop && page_cap < info.pages) {
    for (uint32_t page_no = page_cap; page_no < info.pages; ++page_no) {
      result->quality_bound +=
          index_->disk().PageMaxWeight(PageId{qt.term, page_no}) * wq;
    }
    trace.pages_trimmed = info.pages - page_cap;
    result->pages_trimmed += trace.pages_trimmed;
    result->work_trimmed = true;
  }

  trace.smax_after = *smax;
  result->pages_processed += trace.pages_processed;
  result->disk_reads += trace.pages_read;
  result->postings_processed += trace.postings_processed;
  result->pages_lost += trace.pages_lost;
  if (options_.record_trace) result->trace.push_back(trace);
  close_term_record(/*skipped=*/false);
  return Status::OK();
}

void FilteringEvaluator::ForfeitTerm(const QueryTerm& qt,
                                     EvalResult* result) const {
  // A whole term cut off by the deadline: any one document could have
  // gained at most w(fmax, idf) * w_{q,t} from it.
  const index::TermInfo& info = index_->lexicon().info(qt.term);
  result->quality_bound +=
      DocTermWeight(info.fmax, info.idf) * QueryTermWeight(qt.fq, info.idf);
}

void FilteringEvaluator::TermwiseRun::Begin(const Query& query,
                                            const EvalControl* control) {
  if (control != nullptr) {
    control_ = *control;
    has_control_ = true;
  }
  obs::ScopedSpan snapshot_span(evaluator_->options_.span_recorder,
                                obs::SpanStage::kContextSnapshot);
  buffers_->SetQueryContext(
      BuildQueryContext(query, evaluator_->index_->lexicon()));
}

Result<FilteringEvaluator::TermwiseRun::StepOutcome>
FilteringEvaluator::TermwiseRun::Step(const QueryTerm& qt, double smax_in) {
  const uint32_t skipped_before = result_.terms_skipped;
  const uint64_t reads_before = result_.disk_reads;
  const uint32_t lost_before = result_.pages_lost;
  double smax = smax_in;
  IRBUF_RETURN_NOT_OK(
      evaluator_->ProcessTerm(qt, buffers_, &accumulators_, &smax, &result_,
                              has_control_ ? &control_ : nullptr));
  StepOutcome outcome;
  outcome.smax = smax;
  outcome.skipped = result_.terms_skipped != skipped_before;
  outcome.pages_read =
      static_cast<uint32_t>(result_.disk_reads - reads_before);
  outcome.pages_lost = result_.pages_lost - lost_before;
  return outcome;
}

void FilteringEvaluator::TermwiseRun::Forfeit(const QueryTerm& qt) {
  evaluator_->ForfeitTerm(qt, &result_);
}

EvalResult FilteringEvaluator::TermwiseRun::Finish() {
  {
    obs::ScopedSpan merge_span(evaluator_->options_.span_recorder,
                               obs::SpanStage::kTopKMerge);
    result_.top_docs = SelectTopN(accumulators_, *evaluator_->index_,
                                  evaluator_->options_.top_n);
  }
  result_.accumulators = accumulators_.size();
  result_.degraded = result_.pages_lost > 0 || result_.deadline_hit ||
                     result_.work_trimmed || result_.shards_lost > 0;
  return std::move(result_);
}

Result<EvalResult> FilteringEvaluator::Evaluate(
    const Query& query, buffer::BufferPool* buffers,
    const EvalControl* control) const {
  EvalResult result;
  if (query.empty()) return result;

  // Deadline probe, read at term boundaries only (a handful of clock
  // reads per query; a hit deadline never tears a term mid-list).
  const auto deadline_passed = [control]() {
    if (control == nullptr || control->deadline_us == 0) return false;
    uint64_t (*clock)() = control->now_us != nullptr
                              ? control->now_us
                              : &fault::MonotonicNowUs;
    return clock() >= control->deadline_us;
  };

  // Ranking-aware replacement sees the new query's weights before any page
  // of this evaluation is touched.
  {
    obs::ScopedSpan snapshot_span(options_.span_recorder,
                                  obs::SpanStage::kContextSnapshot);
    buffers->SetQueryContext(BuildQueryContext(query, index_->lexicon()));
  }

  // The evaluating thread's candidate set, reset rather than rebuilt per
  // query (see accumulator_set.h). Per thread, so concurrent Evaluate
  // calls on one evaluator never share it; TermwiseRun keeps its own,
  // since shard runs interleave on one thread.
  thread_local AccumulatorSet accumulators;
  accumulators.Clear();
  double smax = 0.0;

  if (!options_.buffer_aware) {
    // --- DF: fixed decreasing-idf order. ---
    const std::vector<QueryTerm> order =
        DfTermOrder(query, index_->lexicon());
    for (size_t i = 0; i < order.size(); ++i) {
      // Brownout rung 1: the term budget cuts the low-idf tail (DF
      // order puts the highest-impact terms first).
      if (control != nullptr && control->max_terms > 0 &&
          i >= control->max_terms) {
        result.work_trimmed = true;
        for (size_t j = i; j < order.size(); ++j) {
          ForfeitTerm(order[j], &result);
        }
        break;
      }
      if (deadline_passed()) {
        result.deadline_hit = true;
        for (size_t j = i; j < order.size(); ++j) {
          ForfeitTerm(order[j], &result);
        }
        break;
      }
      IRBUF_RETURN_NOT_OK(ProcessTerm(order[i], buffers, &accumulators,
                                      &smax, &result, control));
    }
  } else {
    // --- BAF: per round, pick the unmarked term with the fewest estimated
    // disk reads (step 3a of Figure 2). ---
    struct Candidate {
      QueryTerm qt;
      double cached_smax = -1.0;  // Smax at which fadd/pt were computed.
      double f_add = 0.0;
      uint32_t pt = 0;
      bool done = false;
    };
    std::vector<Candidate> candidates;
    candidates.reserve(query.size());
    for (const QueryTerm& qt : query.terms()) {
      candidates.push_back(Candidate{qt, -1.0, 0.0, 0, false});
    }

    const index::Lexicon& lexicon = index_->lexicon();
    const index::ConversionTable& table = index_->conversion_table();

    for (size_t round = 0; round < candidates.size(); ++round) {
      // Brownout rung 1 for BAF: the budget caps rounds; the unmarked
      // remainder is forfeited. BAF picks cheap-read terms first, so
      // the cut falls on the most expensive lists.
      if (control != nullptr && control->max_terms > 0 &&
          round >= control->max_terms) {
        result.work_trimmed = true;
        for (const Candidate& cand : candidates) {
          if (!cand.done) ForfeitTerm(cand.qt, &result);
        }
        break;
      }
      if (deadline_passed()) {
        result.deadline_hit = true;
        for (const Candidate& cand : candidates) {
          if (!cand.done) ForfeitTerm(cand.qt, &result);
        }
        break;
      }
      Candidate* best = nullptr;
      uint32_t best_dt = 0;
      double best_idf = 0.0;
      for (Candidate& cand : candidates) {
        if (cand.done) continue;
        const index::TermInfo& info = lexicon.info(cand.qt.term);
        // f_add and p_t change only when Smax has changed since they were
        // last computed (the caching optimization of Section 3.2.2).
        if (cand.cached_smax != smax) {
          cand.f_add = ComputeThresholds(options_.c_ins, options_.c_add,
                                         smax, cand.qt.fq, info.idf)
                           .f_add;
          cand.pt = table.PagesToProcess(cand.qt.term, cand.f_add,
                                         info.pages, info.fmax);
          cand.cached_smax = smax;
        }
        // b_t from the buffer manager's residency counters (step 3a.iii).
        const uint32_t bt = buffers->ResidentPages(cand.qt.term);
        const uint32_t dt = cand.pt > bt ? cand.pt - bt : 0;
        if (best == nullptr || dt < best_dt ||
            (dt == best_dt && (info.idf > best_idf ||
                               (info.idf == best_idf &&
                                cand.qt.term < best->qt.term)))) {
          best = &cand;
          best_dt = dt;
          best_idf = info.idf;
        }
      }
      best->done = true;
      IRBUF_RETURN_NOT_OK(ProcessTerm(best->qt, buffers, &accumulators,
                                      &smax, &result, control));
    }
  }

  // Steps 5-6: normalize by W_d and keep the n best.
  {
    obs::ScopedSpan merge_span(options_.span_recorder,
                               obs::SpanStage::kTopKMerge);
    result.top_docs = SelectTopN(accumulators, *index_, options_.top_n);
  }
  result.accumulators = accumulators.size();
  result.degraded = result.pages_lost > 0 || result.deadline_hit ||
                    result.work_trimmed || result.shards_lost > 0;
  return result;
}

}  // namespace irbuf::core
