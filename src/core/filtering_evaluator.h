// The filtering query evaluators:
//
//  * DF  — Persin's Document Filtering algorithm (Figure 1): terms are
//    processed in decreasing-idf order; within each list, postings are
//    filtered against the insertion threshold f_ins and the addition
//    threshold f_add (Equation 5), and processing of the list stops at the
//    first posting at or below f_add (lists are frequency-sorted, so no
//    later posting can pass).
//
//  * BAF — Buffer-Aware Filtering (Figure 2), the paper's contribution:
//    identical filtering, but in each round the next term is the unmarked
//    term with the fewest *estimated disk reads* d_t = max(p_t - b_t, 0),
//    where p_t comes from the conversion table and b_t from the buffer
//    manager's residency counters; ties go to the higher idf.
//
// Setting c_ins = c_add = 0 disables the unsafe optimization and yields
// the safe, full-evaluation baseline the paper measures savings against.

#ifndef IRBUF_CORE_FILTERING_EVALUATOR_H_
#define IRBUF_CORE_FILTERING_EVALUATOR_H_

#include <cstdint>
#include <vector>

#include "buffer/buffer_pool.h"
#include "core/accumulator_set.h"
#include "core/query.h"
#include "index/inverted_index.h"
#include "obs/span.h"
#include "util/status.h"

namespace irbuf::core {

/// Tuning of the filtering evaluators.
struct EvalOptions {
  /// Insertion-threshold constant (controls candidate-set size). The
  /// paper's experiments use Persin's tuned value 0.07 (Section 4.1).
  double c_ins = 0.07;
  /// Addition-threshold constant (controls disk reads); tuned value 0.002.
  double c_add = 0.002;
  /// Number of ranked answers to return.
  uint32_t top_n = 20;
  /// false = DF (static idf order); true = BAF (buffer-aware order).
  bool buffer_aware = false;
  /// The "easy fix" of Section 3.2.2: always process at least the first
  /// page of every term, so a refined query can never return the previous
  /// answer unchanged. Off by default, as in the paper's experiments.
  bool always_read_first_page = false;
  /// Record the per-term trace (Tables 1-2, Figure 4). Cheap; on by
  /// default.
  bool record_trace = true;
  /// Optional query record (obs/span.h): times the context snapshot,
  /// each term's list traversal (carrying the term's f_ins, f_add, list
  /// length, Smax after, postings and accumulator-set size), the
  /// per-page accumulator pass and the final top-k merge, and records
  /// ins->add->drop phase transitions, page-granular Smax updates and
  /// lost pages as instants. Page pins, misses and evictions are the
  /// pool's to record: give it the same recorder
  /// (ConcurrentPoolOptions::span_recorder). Not owned; must outlive the
  /// evaluator. nullptr (the default) costs one branch per site and
  /// changes nothing else; recording never changes results or counters.
  obs::SpanRecorder* span_recorder = nullptr;
};

/// Evaluation-time controls independent of evaluator tuning: the
/// per-query deadline and work budgets a QueryServer imposes. The
/// deadline is checked at term boundaries (the evaluators' natural
/// phase boundaries), so a hit deadline yields a well-formed partial
/// ranking, never a torn term. The budgets are the serve layer's
/// brownout rungs: under overload the server first caps terms, then
/// pages per term, trading bounded answer quality for latency — every
/// trimmed posting is accounted in EvalResult::quality_bound exactly
/// like a deadline-forfeited one, so a browned-out answer is still
/// honest about what it may have missed.
struct EvalControl {
  /// Absolute deadline in microseconds on the `now_us` clock; 0 = none.
  uint64_t deadline_us = 0;
  /// Clock read once per term boundary; null = process steady clock
  /// (fault::MonotonicNowUs). Injectable for deterministic tests.
  uint64_t (*now_us)() = nullptr;
  /// Brownout rung 1: evaluate at most this many terms (in processing
  /// order), forfeiting the tail into quality_bound; 0 = all terms.
  /// Low-idf tail terms move scores least, so they are the cheapest
  /// quality to spend under overload.
  uint32_t max_terms = 0;
  /// Brownout rung 2: touch at most this many pages of any one term's
  /// list, forfeiting the rest (per-page PageMaxWeight bound) into
  /// quality_bound; 0 = no cap. Frequency-sorted lists put the
  /// highest-impact postings on the earliest pages, so the trimmed
  /// tail is again the cheapest work to shed.
  uint32_t max_pages_per_term = 0;
};

/// Per-term execution record, one row of the paper's Tables 1 and 2.
struct TermTrace {
  TermId term = 0;
  double idf = 0.0;
  uint32_t total_pages = 0;
  /// Smax before this term's thresholds were computed.
  double smax_before = 0.0;
  /// Smax after the term was processed.
  double smax_after = 0.0;
  double f_ins = 0.0;
  double f_add = 0.0;
  /// Pages of this list touched (buffer hits + misses).
  uint32_t pages_processed = 0;
  /// Pages of this list read from disk (buffer misses).
  uint32_t pages_read = 0;
  uint64_t postings_processed = 0;
  /// True when step 4b/3c skipped the whole list (fmax <= f_add).
  bool skipped = false;
  /// Pages of this list that were unreadable (device faults) and were
  /// degraded past instead of failing the query.
  uint32_t pages_lost = 0;
  /// Pages of this list left unread by EvalControl::max_pages_per_term
  /// (readable, but the server chose not to under brownout).
  uint32_t pages_trimmed = 0;
};

/// Everything one evaluation produces.
struct EvalResult {
  std::vector<ScoredDoc> top_docs;
  /// Pages read from disk (buffer misses) — the paper's headline metric.
  uint64_t disk_reads = 0;
  /// Pages touched through the buffer manager (hits + misses).
  uint64_t pages_processed = 0;
  /// Inverted-list entries processed — the CPU-cost metric.
  uint64_t postings_processed = 0;
  /// Candidate-set size — the memory metric.
  uint64_t accumulators = 0;
  /// Terms skipped entirely by the fmax <= f_add test.
  uint32_t terms_skipped = 0;
  /// Per-term trace, in processing order (empty if !record_trace).
  std::vector<TermTrace> trace;

  // --- Graceful degradation (fault/deadline tolerance) ---
  //
  // An unreadable page is handled exactly like a threshold-skipped list
  // tail: its postings are forfeited and the query completes on what
  // was readable. The same accounting covers terms cut off by a
  // deadline. `quality_bound` is the bookkeeping that makes the partial
  // answer honest: no document's true score exceeds its reported score
  // by more than the bound, because a lost page's postings contribute
  // at most page_max_weight * w_{q,t} each (the same product RAP uses
  // as a replacement value) and a skipped term at most
  // w(fmax, idf) * w_{q,t}.

  /// True when anything was forfeited (pages lost, deadline hit, work
  /// trimmed, or a shard dropped).
  bool degraded = false;
  /// Pages that could not be read after retries.
  uint32_t pages_lost = 0;
  /// Maximum score any single document could have gained from the
  /// forfeited postings. 0 when !degraded; always finite.
  double quality_bound = 0.0;
  /// True when the EvalControl deadline cut evaluation short.
  bool deadline_hit = false;
  /// True when an overload budget (EvalControl::max_terms /
  /// max_pages_per_term) trimmed work. Distinct from deadline_hit: the
  /// server chose the trim before evaluation, not the clock during it.
  bool work_trimmed = false;
  /// Pages left unread by max_pages_per_term across all terms.
  uint32_t pages_trimmed = 0;
  /// Doc-partitioned serving only: shards whose partial result was
  /// forfeited mid-query (breaker open or straggler abandoned); their
  /// loss is accounted in pages_lost and quality_bound.
  uint32_t shards_lost = 0;
};

/// DF's static processing order (step 3 of Figure 1): decreasing idf_t,
/// i.e. shortest inverted lists first; ties broken by list length then
/// term id for determinism. Exposed so a sharded coordinator can drive
/// every shard through the exact order the unsharded evaluator uses —
/// the first ingredient of the sharded/unsharded ranking identity — and
/// so quit/continue processes terms in DF's order.
std::vector<QueryTerm> DfTermOrder(const Query& query,
                                   const index::Lexicon& lexicon);

/// Evaluates vector-space queries against a frequency-sorted inverted
/// index through a buffer manager.
class FilteringEvaluator {
 public:
  /// The index must outlive the evaluator.
  FilteringEvaluator(const index::InvertedIndex* index, EvalOptions options)
      : index_(index), options_(options) {}

  /// Externally-driven evaluation of ONE query, one term at a time: the
  /// stepped counterpart of Evaluate() for coordinators that own the
  /// term order themselves (the sharded scatter-gather engine). The
  /// caller supplies Smax at every term boundary, which is exactly the
  /// granularity at which Evaluate() consults it — ProcessTerm computes
  /// f_ins/f_add once per term from Smax-at-term-start and only ever
  /// *raises* Smax mid-term — so driving N disjoint-doc-range shards
  /// through the same term order with the globally-maxed Smax
  /// reproduces the unsharded threshold trajectory bit-for-bit.
  ///
  /// Not thread-safe; a run belongs to one query. Steps may come from
  /// different threads as long as they are externally serialized with
  /// happens-before edges (the sharded engine's per-term barrier).
  class TermwiseRun {
   public:
    /// Both pointers are borrowed and must outlive the run.
    TermwiseRun(const FilteringEvaluator* evaluator,
                buffer::BufferPool* buffers)
        : evaluator_(evaluator), buffers_(buffers) {}

    TermwiseRun(TermwiseRun&&) = default;
    TermwiseRun& operator=(TermwiseRun&&) = delete;

    /// Installs the query's replacement context on the pool (same call
    /// Evaluate() opens with; a no-op under an attached shared context)
    /// and remembers `control` (may be null) for Step's per-term page
    /// budget. The control is copied BY VALUE into the run: an
    /// abandoned-straggler Step may execute after the coordinator's
    /// Evaluate returned, so it must never dereference caller-stack
    /// state. Term-level controls (deadline, max_terms) stay with the
    /// coordinator, which owns the term order.
    void Begin(const Query& query, const EvalControl* control = nullptr);

    struct StepOutcome {
      /// Smax after the term: max(smax_in, best accumulator touched).
      double smax = 0.0;
      /// True when the fmax <= f_add test skipped the whole list.
      bool skipped = false;
      /// This step's device I/O: pages read from disk and pages
      /// forfeited to device faults. The health signal a sharded
      /// coordinator feeds its per-shard circuit breaker.
      uint32_t pages_read = 0;
      uint32_t pages_lost = 0;
    };

    /// Processes one term's inverted list with thresholds derived from
    /// `smax_in`. Device-level faults degrade into the run's result;
    /// logic errors propagate (and poison the run).
    Result<StepOutcome> Step(const QueryTerm& qt, double smax_in);

    /// Adds `qt`'s maximum possible single-document contribution to the
    /// quality bound (a term forfeited to the coordinator's deadline).
    void Forfeit(const QueryTerm& qt);

    /// Normalizes and selects this run's top n (steps 5-6) and returns
    /// the accumulated result. The run is spent afterwards.
    EvalResult Finish();

   private:
    const FilteringEvaluator* evaluator_;
    buffer::BufferPool* buffers_;
    /// Value copy of Begin's control (see Begin); has_control_ gates it
    /// so a null caller pointer stays "no control" for ProcessTerm.
    EvalControl control_;
    bool has_control_ = false;
    AccumulatorSet accumulators_;
    EvalResult result_;
  };

  /// Runs one query. The buffer pool's contents persist across calls —
  /// that persistence is exactly what refinement workloads exercise.
  /// Pages are accessed through the pin/unpin protocol (one page pinned
  /// at a time), so the same evaluator code runs unchanged against the
  /// single-threaded simulator and the concurrent server.
  ///
  /// Device-level read failures (kUnavailable, kCorrupted, kIOError —
  /// retries already exhausted below the pool) degrade the result
  /// instead of failing it: see EvalResult's degradation fields.
  /// Logic errors (kResourceExhausted, kNotFound, ...) still propagate.
  /// `control` (optional) imposes a deadline; pass nullptr for none.
  /// Threads may share one evaluator: each evaluates into its own
  /// candidate set, kept per thread and reset (not rebuilt) per query.
  Result<EvalResult> Evaluate(const Query& query,
                              buffer::BufferPool* buffers,
                              const EvalControl* control = nullptr) const;

  const EvalOptions& options() const { return options_; }

 private:
  /// Processes one term's inverted list (steps 4b-4c / 3b-3d), updating
  /// accumulators, Smax and the trace. `control` (may be null) supplies
  /// the per-term page budget.
  Status ProcessTerm(const QueryTerm& qt, buffer::BufferPool* buffers,
                     AccumulatorSet* accumulators, double* smax,
                     EvalResult* result, const EvalControl* control) const;

  /// Adds term `qt`'s maximum possible single-document contribution to
  /// the quality bound (deadline-skipped terms).
  void ForfeitTerm(const QueryTerm& qt, EvalResult* result) const;

  const index::InvertedIndex* index_;
  EvalOptions options_;
};

}  // namespace irbuf::core

#endif  // IRBUF_CORE_FILTERING_EVALUATOR_H_
