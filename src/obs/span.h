// The one query record: timed, nested stage spans plus a few instants,
// collected from every thread that works on a query.
//
// One record answers both "where did the p99 query's time go" (the
// timed stages and their attribution table) and "what did this query
// do" (the paper's per-term story: thresholds, pages, Smax, phase
// transitions, evictions by RAP value). Kind-specific attributes ride
// on the span that already brackets the interval: a kTermLoop span
// carries its term's f_ins, f_add, list length, Smax after, postings
// and accumulator-set size; a kPagePin span its page and hit flag; a
// kMissRead span its attempts and breaker note. Only four things have
// no interval of their own and are recorded as instants (dur_ns == 0):
// phase transitions, page-granular Smax updates, evictions and lost
// pages. Design constraints, in order:
//
//   1. Disabled must be free. Every instrumentation site holds a
//      `SpanRecorder*` that is nullptr when tracing is off, and
//      ScopedSpan's constructor is a single null test in that case — no
//      clock read, no thread-local lookup, no allocation. Attribute and
//      instant sites are one null test each. This is the same
//      nullptr-handle discipline the MetricsRegistry instruments use, so
//      rankings and counters are bit-identical with and without the
//      layer compiled in (pinned by span_differential_test and the
//      BM_SpanScope pair in bench_micro).
//   2. Enabled must not serialize workers. Each thread records into its
//      own ThreadBuffer, resolved through a one-entry thread-local
//      cache keyed on a process-unique recorder id (never an address,
//      which allocators reuse). A per-buffer mutex guards only that
//      buffer's vector, taken once per completed record; threads never
//      contend with each other, only with a concurrent Snapshot. So a
//      pool with readahead workers can be traced: evictions an I/O
//      worker makes land in that worker's buffer.
//   3. Timestamps share one timebase. Spans, lock waits and the serve
//      path's latency accounting all read util/monotonic_clock.h, so a
//      Chrome trace assembled from them lines up in Perfetto.
//
// Exports, all over a Snapshot(): Chrome trace_event JSON
// (ToChromeTraceJson — load the file in ui.perfetto.dev or
// chrome://tracing), a per-stage p50/p99 decomposition
// (ComputeAttribution / AppendAttributionJson) that
// bench_serve_throughput embeds in its telemetry and
// tools/bench/attribution_report.py renders, and the semantic timeline
// (ToJson / DumpText / SmaxTrajectory) behind irbuf_cli --trace and the
// refinement-sequence telemetry.

#ifndef IRBUF_OBS_SPAN_H_
#define IRBUF_OBS_SPAN_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "obs/json.h"
#include "obs/metrics.h"
#include "util/monotonic_clock.h"
#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace irbuf::obs {

/// The kinds of record. The timed stages come first; nesting at their
/// recording sites follows this containment: Evaluate > TermLoop >
/// {PagePin > MissRead > {CrcVerify, BlockDecode}, Accumulate} and
/// Evaluate > TopKMerge; QueueWait and ContextSnapshot are top-level
/// siblings of Evaluate. LockWait spans are injected by the
/// mutex-contention bridge at whatever depth the blocked thread happened
/// to be. The instants follow (dur_ns == 0), recorded at the depth of the
/// span they happened in.
///
/// Attributes per kind (Span fields; unused ones are zero):
///   kTermLoop   term; a = f_ins, b = f_add, c = Smax after the term,
///               n = postings processed, m = accumulator-set size after
///               the term, page_no = the list's length in pages,
///               hit = skipped whole (fmax <= f_add, no page read)
///   kPagePin    term, page_no; hit = buffer hit
///   kMissRead, kPrefetchIssue
///               term, page_no; n = read attempts (0 when the breaker
///               rejected it), hit = the read succeeded,
///               note = "rejected" on a circuit-breaker rejection
///   kPhase      term; note = transition ("ins->add", "grow->quit", ...)
///   kSmax       term; a = Smax before, b = Smax after (one per page
///               that moved it)
///   kEvict      term, page_no of the victim; a = max_weight, b = RAP
///               replacement value, n = age in fetches
///   kPageLost   term, page_no; a = forfeited score bound
/// CrcVerify, BlockDecode, Accumulate and AsyncWait carry their term.
enum class SpanStage : uint8_t {
  kQueueWait = 0,    // admission-queue dwell: submit → worker pickup
  kContextSnapshot,  // shared query-context registration
  kEvaluate,         // whole evaluator call
  kTermLoop,         // one query term's posting traversal
  kPagePin,          // buffer-pool FetchPinned (hit or miss)
  kMissRead,         // miss path: disk read + simulated seek delay
  kCrcVerify,        // page checksum verification inside the disk read
  kBlockDecode,      // posting-block decode inside the disk read
  kAccumulate,       // accumulator updates for one fetched page
  kTopKMerge,        // final top-k selection
  kShardMerge,       // scatter-gather merge of per-shard partial top-k
  kLockWait,         // contended mutex acquisition (via MutexWaitStats)
  kPrefetchIssue,    // one readahead load on a background I/O worker
  kAsyncWait,        // a fetch blocked joining an in-flight page load
  // Instants:
  kPhase,            // evaluation phase transition
  kSmax,             // Smax moved while a page was processed
  kEvict,            // the pool evicted a page
  kPageLost,         // an unreadable page was forfeited
};

inline constexpr size_t kNumSpanStages = 18;
/// The timed stages are SpanStage values below this; the rest are
/// instants.
inline constexpr size_t kNumTimedStages = 14;

inline constexpr bool IsInstant(SpanStage stage) {
  return static_cast<size_t>(stage) >= kNumTimedStages;
}

/// Short stable identifier ("queue_wait", "block_decode", "evict", ...)
/// used as the Chrome-trace event name, the attribution-table key and
/// the timeline's "kind".
const char* SpanStageName(SpanStage stage);

/// One record: a completed span, or an instant. The fields after
/// `depth` are the kind-specific attributes documented on SpanStage.
struct Span {
  uint64_t start_ns = 0;  // MonotonicNowNs at entry (instants: when)
  uint64_t dur_ns = 0;    // 0 for instants
  uint32_t query = 0;     // SpanRecorder::kNoQuery when not attributed
  uint32_t term = 0;      // term id for the term-scoped kinds
  SpanStage stage = SpanStage::kQueueWait;
  uint8_t depth = 0;      // nesting depth on the recording thread
  bool hit = false;
  uint32_t page_no = 0;
  double a = 0.0;
  double b = 0.0;
  double c = 0.0;
  uint64_t n = 0;
  uint64_t m = 0;
  /// Static-storage string (phase transitions, breaker notes); never
  /// owned.
  const char* note = nullptr;
};

/// All spans one thread recorded, keyed by its stable registration
/// index (the Chrome-trace tid).
struct ThreadSpans {
  uint32_t tid;
  std::vector<Span> spans;
};

/// Thread-safe collector of records from any number of threads. One
/// recorder instruments one run (a bench cell, a CLI serve session, a
/// refinement sequence); Snapshot() after the workers drain, Clear() to
/// reuse.
class SpanRecorder {
 public:
  /// `query` value for spans recorded outside any query's service.
  static constexpr uint32_t kNoQuery = 0xFFFFFFFFu;

  /// Per-thread span storage. `depth` and `current_query` are written
  /// only by the owning thread (no synchronization needed); `spans` is
  /// shared with Snapshot/Clear and guarded by `mu`.
  struct ThreadBuffer {
    Mutex mu;
    std::vector<Span> spans IRBUF_GUARDED_BY(mu);
    uint32_t depth = 0;               // owner thread only
    uint32_t current_query = kNoQuery;  // owner thread only
    uint32_t tid = 0;                 // registration index, frozen
  };

  SpanRecorder();
  SpanRecorder(const SpanRecorder&) = delete;
  SpanRecorder& operator=(const SpanRecorder&) = delete;

  /// Tags every subsequent record made *by the calling thread* with
  /// `query` (workers call this when they pick a task up, and reset to
  /// kNoQuery when done, so inter-query lock waits are not charged to
  /// the previous query; a refinement sequence tags each step with its
  /// step index).
  void SetCurrentQuery(uint32_t query) {
    BufferForThisThread()->current_query = query;
  }

  /// Records an already-timed span on the calling thread at its current
  /// nesting depth — for intervals whose start predates the recording
  /// thread's involvement (queue wait: submit happened on the client
  /// thread, pickup on the worker).
  void RecordManual(SpanStage stage, uint64_t start_ns, uint64_t end_ns,
                    uint32_t query, uint32_t term = 0);

  /// Records an instant on the calling thread: `record`'s stage, term
  /// and attributes, stamped now with the thread's current query and
  /// nesting depth (dur_ns = 0). For the instant kinds only.
  void RecordInstant(Span record);

  /// Records a contended-lock wait that ended now on the calling
  /// thread, attributed to its current query. Called by the
  /// MutexWaitBinding observer, not by instrumentation sites directly.
  void RecordLockWait(uint64_t wait_ns);

  /// Copies out every thread's spans, ordered by registration. Safe
  /// concurrently with recording, but only quiesced snapshots (workers
  /// joined or idle) are complete — the benches' reporting pattern.
  std::vector<ThreadSpans> Snapshot() const;

  /// Drops all recorded spans; thread registrations and the per-thread
  /// query/depth state survive, so a recorder is reusable across bench
  /// cells without re-warming the thread-local caches.
  void Clear();

  /// Resolves (registering on first use) the calling thread's buffer.
  /// Fast path is one thread-local compare. Public for ScopedSpan; not
  /// an instrumentation API.
  ThreadBuffer* BufferForThisThread();

 private:
  /// Process-unique id the thread-local cache keys on. An address
  /// would be reused by the allocator and make a stale cache entry dump
  /// spans into the wrong (or freed) recorder.
  const uint64_t id_;

  mutable Mutex mu_;
  std::vector<std::unique_ptr<ThreadBuffer>> buffers_ IRBUF_GUARDED_BY(mu_);
};

/// RAII span: times its own scope on the recording thread and bumps the
/// thread's nesting depth so children know theirs. With a null
/// recorder the constructor is one branch and the destructor another —
/// the "disabled is free" contract.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* recorder, SpanStage stage, uint32_t term = 0,
             uint32_t page_no = 0) {
    if (recorder == nullptr) return;
    buf_ = recorder->BufferForThisThread();
    record_.emplace();
    record_->stage = stage;
    record_->term = term;
    record_->page_no = page_no;
    ++buf_->depth;
    record_->start_ns = MonotonicNowNs();
  }

  ~ScopedSpan() {
    if (buf_ == nullptr) return;
    const uint64_t end_ns = MonotonicNowNs();
    record_->dur_ns = end_ns - record_->start_ns;
    record_->depth = static_cast<uint8_t>(--buf_->depth);
    record_->query = buf_->current_query;
    MutexLock lock(buf_->mu);
    buf_->spans.push_back(*record_);
  }

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  /// The record this span will emit, for its kind-specific attributes;
  /// nullptr when recording is off, so an attribute site costs one null
  /// test.
  Span* record() { return buf_ != nullptr ? &*record_ : nullptr; }

 private:
  SpanRecorder::ThreadBuffer* buf_ = nullptr;
  /// Engaged only while recording, so a disabled span never fills it.
  std::optional<Span> record_;
};

/// Renders a snapshot as Chrome trace_event JSON (complete "X" events
/// for spans, thread-scoped "i" events for instants, microsecond
/// timestamps, one trace tid per recording thread; each record's query,
/// term and attributes in "args"). Load the result in ui.perfetto.dev
/// or chrome://tracing.
std::string ToChromeTraceJson(const std::vector<ThreadSpans>& threads);

/// Every record of a snapshot in one list, ordered by start time (an
/// enclosing span before the records it contains).
std::vector<Span> MergedTimeline(const std::vector<ThreadSpans>& threads);

/// The semantic timeline as JSON: {"records":[{"kind":..,"query":..,
/// "term":..,<attributes>,"dur_us":..},...]} in MergedTimeline order,
/// with kind-specific keys (query omitted when kNoQuery, dur_us for
/// spans only).
std::string ToJson(const std::vector<ThreadSpans>& threads);

/// The same timeline for humans, one record per line:
///   [query] kind  key=value ...
std::string DumpText(const std::vector<ThreadSpans>& threads);

/// Smax after each kTermLoop of `query` that read its list (skipped
/// terms excluded), in processing order: the per-step Smax trajectory
/// of the paper's Figure 4.
std::vector<double> SmaxTrajectory(const std::vector<ThreadSpans>& threads,
                                   uint32_t query);

/// Per-run latency decomposition derived from a snapshot. Instants are
/// counted (`spans`) but carry no time and never enter a query's wall.
/// All times are inclusive (a kTermLoop total contains its page pins), so stage
/// shares are read per stage against the wall, not summed across
/// stages — see DESIGN.md §9 for the exact semantics.
struct SpanAttribution {
  struct Stage {
    uint64_t spans = 0;      // spans recorded for this stage
    uint64_t total_ns = 0;   // inclusive time across all queries
    double p50_us = 0.0;     // per-query stage-total percentiles,
    double p99_us = 0.0;     //   zero for queries that skip the stage
    double p99_share = 0.0;  // stage share of p99-bucket queries' wall
  };

  uint64_t queries = 0;      // distinct query ids seen
  double wall_p50_us = 0.0;  // per-query wall = sum of depth-0 spans
  double wall_p99_us = 0.0;
  std::array<Stage, kNumSpanStages> stages{};
};

/// Aggregates a snapshot: per-query wall from depth-0 spans, per-stage
/// per-query totals, and for the p99 bucket (queries with wall >= the
/// wall p99) each stage's share of the bucket's total wall — the table
/// that answers "which stage dominates the slow queries".
SpanAttribution ComputeAttribution(const std::vector<ThreadSpans>& threads);

/// Emits the attribution as one JSON object value:
///   {"queries":N,"wall_us":{"p50":..,"p99":..},
///    "stages":{"queue_wait":{"spans":..,"total_us":..,"p50_us":..,
///              "p99_us":..,"p99_share":..}, ...}}
/// The caller positions the writer (typically after Key("attribution")).
void AppendAttributionJson(const SpanAttribution& attr, JsonWriter& w);

/// Emits one MutexWaitStats as a JSON object value:
///   {"acquisitions":..,"contended":..,"wait_ns_total":..,
///    "wait_hist_us":[[lower_bound_us,count],...]}   (zero buckets
/// omitted). Shared by bench telemetry and the CLI.
void AppendMutexWaitJson(const MutexWaitStats& stats, JsonWriter& w);

/// Glue from util's dependency-free MutexWaitStats observer hook into
/// the obs layer: every contended wait is mirrored into `hist` (in
/// microseconds, for live MetricsRegistry export) and, when `recorder`
/// is non-null, recorded as a kLockWait span on the waiting thread so
/// contention shows up on the Perfetto timeline. The binding must
/// outlive the mutexes feeding `stats`.
class MutexWaitBinding {
 public:
  MutexWaitBinding() = default;
  MutexWaitBinding(const MutexWaitBinding&) = delete;
  MutexWaitBinding& operator=(const MutexWaitBinding&) = delete;

  void Bind(MutexWaitStats* stats, Histogram* hist, SpanRecorder* recorder);

 private:
  static void Observe(void* ctx, uint64_t wait_ns);

  Histogram* hist_ = nullptr;
  SpanRecorder* recorder_ = nullptr;
};

/// Histogram bounds (inclusive upper bounds, microseconds) matching the
/// MutexWaitStats log2 buckets, for registering "mutex.<name>.wait_us"
/// histograms in a MetricsRegistry.
std::vector<double> MutexWaitHistogramBounds();

}  // namespace irbuf::obs

#endif  // IRBUF_OBS_SPAN_H_
