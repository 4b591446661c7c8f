// The buffer manager: a fixed pool of page frames over the simulated
// disk, with a pluggable replacement policy and the per-term residency
// counters (b_t) that the BAF evaluator queries (Section 3.2.2 — "an
// array of counters, updated whenever a page is moved in or out of
// buffers"). It is the only buffer::BufferPool: the single-threaded
// simulator (ir::IrSystem, the experiment drivers) and every worker of a
// QueryServer reach pages through the same pin/unpin protocol.
//
// Locking design (lock order: latch -> stripe; never the reverse while
// acquiring; prefetch_mu_ is a standalone leaf — never held while
// acquiring any other pool lock):
//
//  * The page table is striped: each stripe owns a mutex, the resident
//    page -> frame map of its hash slice, the in-flight table of pages
//    currently being loaded (one PageLoad entry each), and a condition
//    variable that loading waiters block on. Fetches of pages in
//    different stripes never contend here.
//  * One pool-wide latch serializes everything the (single-threaded)
//    replacement policy and free list touch: victim choice, frame
//    metadata, OnInsert/OnHit/OnEvict, the prefetch-tagged window and
//    the published query context.
//  * Disk reads — and the optional simulated device delay — happen with
//    NO lock held: the target frame is reserved with a pin and is
//    unmapped, so no other thread can reach it, and concurrent misses
//    overlap their I/O time.
//  * Per-frame pin counts, per-term residency (b_t) and the pool
//    counters are atomics; recording never takes a lock.
//
// The async miss pipeline. Every load — demand miss or readahead — runs
// the same phases, and holds a PageLoad entry in its stripe's in-flight
// table from the moment it claims the page until its terminal phase:
//
//        kRequested ──► kReading ──► kDecoding ──► kResident
//             │             │             │        (published in the
//             └─────────────┴─────────────┴──► kFailed   page table)
//
// kRequested: the load owns a table entry but no I/O has started (it may
// still be waiting for a frame). kReading: the simulated device transfer
// (SimulatedDisk::BeginRead + the configured miss delay) is in flight.
// kDecoding: CRC verification + posting-block decode
// (SimulatedDisk::FinishRead) are running on the loader's thread. The
// terminal states leave the table: kResident publishes the page->frame
// mapping (waiters wake to a hit), kFailed erases the entry with no
// mapping (waiters retry as loaders; a retryable attempt re-enters
// kReading first). The phases are where the loader is in ExecuteLoad,
// not stored state: the entry records only that the page is in flight
// and whether a demand fetch joined it. Because the table is checked
// before any read is issued, a second fetch — or a readahead — of a page
// mid-load never issues a second disk read: it joins the load and waits
// on the stripe's condition variable (the wait is attributed to the
// kAsyncWait span stage), then counts as a coalesced hit. Misses
// therefore equal demand disk reads *exactly*, and misses + prefetch
// reads equal every read the pool ever issued
// (contracts::CheckDiskReadConservation, checked at destruction).
//
// Decode/I/O overlap falls out of the split read: while a demand miss
// (or a readahead worker) sits in kDecoding on its own thread, other
// loads' kReading device transfers are outstanding concurrently — page
// n decodes while page n+1's read is in flight.
//
// Readahead (prefetch_depth > 0). prefetch_depth is the number of pages
// each term scan reads ahead of its demand fetches (the evaluators'
// buffer::ReadaheadCursor hints them through Prefetch). The pool sizes
// one bound from it, B = min(max(64, 8*prefetch_depth), capacity/2),
// which caps three things: the hint queue (hints past it are dropped and
// counted prefetch_dropped), the background I/O workers and hence the
// outstanding readahead reads (workers start lazily — one is added when a
// hint is queued and no worker is idle), and the prefetch-tagged window.
// A readahead load runs the same phases and the same resilient read path
// as a demand miss (retry/backoff, breaker accounting, fault injection —
// a faulted readahead read is silently dropped and the demand fetch
// later degrades exactly as it would have without the hint; while the
// breaker is open or half-open, hints are dropped unread so the probe
// slot stays with demand fetches). On success
// the page is published into an *unpinned, prefetch-tagged* frame: the
// replacement policy is NOT told about the frame (no OnInsert), so
// victim choice is undistorted until a demand fetch touches the page —
// promotion then runs OnInsert, unmarks the tag and counts
// prefetch_used. Tagged frames live in a FIFO window of at most B
// frames; when the window is full the next readahead reclaims the
// oldest tagged frame (counted prefetch_wasted — it was read but never
// demanded), so readahead can never consume more than half the pool.
// Demand evictions reclaim tagged frames only as a last resort when
// every untagged frame is pinned. With prefetch_depth == 0 the pipeline
// is inert: no worker thread is ever started, Prefetch returns
// immediately, no frame is ever tagged, and the
// pool's counters, policy-callback sequence and frame handout order are
// bit-identical to the pre-async pool.
//
// Single-threaded determinism: driven by one thread with prefetch off,
// the pool's decisions depend only on the fetch sequence — free frames
// are handed out lowest-id first, the policy sees one OnInsert/OnHit/
// OnEvict sequence, and the pinned-victim fallback never engages (the
// single caller holds no pin while fetching). tests/serve/ pins the
// victim sequences, and tests/integration/ the rankings and page reads,
// to frozen values.

#ifndef IRBUF_SERVE_CONCURRENT_BUFFER_POOL_H_
#define IRBUF_SERVE_CONCURRENT_BUFFER_POOL_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "buffer/buffer_pool.h"
#include "buffer/policy_factory.h"
#include "buffer/replacement_policy.h"
#include "fault/resilient.h"
#include "obs/metrics.h"
#include "obs/query_tracer.h"
#include "obs/span.h"
#include "storage/page.h"
#include "storage/simulated_disk.h"
#include "util/mutex.h"
#include "util/status.h"
#include "util/thread_annotations.h"

namespace irbuf::serve {

/// Configuration of a ConcurrentBufferPool.
struct ConcurrentPoolOptions {
  /// Pool capacity in pages (>= 1). Must exceed the number of pages the
  /// workers can pin at once (the evaluators pin one page each).
  size_t capacity = 256;
  buffer::PolicyKind policy = buffer::PolicyKind::kLru;
  /// Simulated device latency charged per miss, slept with no lock held.
  /// 0 disables. The paper's cost model puts a disk read at ~10.5 ms
  /// (storage::CostModel, PaperEra); scaling that to microseconds keeps
  /// the benches fast while preserving the property that matters for a
  /// closed-loop load: misses of different workers overlap in time.
  /// Under an injected latency spike the delay is multiplied by the
  /// spike factor the disk reports. The delay models the device
  /// transfer, so it is slept between the read's two phases (after
  /// BeginRead, before the FinishRead decode).
  uint32_t io_delay_us_per_miss = 0;
  /// Pages each term scan reads ahead of its demand fetches (returned by
  /// PrefetchDepth()). The pool derives its readahead bound from it:
  /// B = min(max(64, 8*prefetch_depth), capacity/2) bounds the hint
  /// queue, the lazily started I/O workers (so outstanding readahead
  /// reads) and the prefetch-tagged window. 0 (the default) disables
  /// readahead entirely — no thread is ever created and the pool
  /// behaves bit-identically to the synchronous pool.
  size_t prefetch_depth = 0;
  /// Retry/backoff + circuit breaker in front of miss-path reads.
  /// Disabled by default: reads then call the disk directly. Readahead
  /// reads share the same ResilientReader, so their failures feed the
  /// same breaker a demand read would.
  fault::ResilienceOptions resilience;
  /// Span recorder for the miss path (a kMissRead span around the disk
  /// read + simulated device delay on the loading worker's thread; a
  /// kPrefetchIssue span around each readahead load on the I/O worker's
  /// thread; a kAsyncWait span on a fetch that blocked joining an
  /// in-flight load). nullptr = tracing off, one null-test per miss.
  obs::SpanRecorder* span_recorder = nullptr;
  /// Measure lock-contention waits on the pool-wide policy latch and
  /// the page-table stripes (see LatchWaitStats/StripeWaitStats). Off
  /// by default: locking then keeps the uninstrumented fast path.
  bool profile_contention = false;
};

/// Options for a `capacity`-page pool under `policy`, the rest default
/// (readahead off, no device delay, plain reads).
inline ConcurrentPoolOptions PoolOptions(
    size_t capacity, buffer::PolicyKind policy = buffer::PolicyKind::kLru) {
  ConcurrentPoolOptions options;
  options.capacity = capacity;
  options.policy = policy;
  return options;
}

/// Readahead + coalescing accounting (all zero with prefetch off except
/// coalesced_misses/device_reads, which the demand path also feeds).
struct PoolPrefetchStats {
  /// Readahead reads that completed successfully into a frame.
  uint64_t issued = 0;
  /// Prefetched pages later touched by a demand fetch (promoted).
  uint64_t used = 0;
  /// Prefetched pages reclaimed before any demand touch.
  uint64_t wasted = 0;
  /// Hints dropped because the hint queue already held B entries.
  uint64_t dropped = 0;
  /// Demand fetches that joined an in-flight load instead of issuing
  /// their own disk read (counted as hits in BufferStats).
  uint64_t coalesced_misses = 0;
  /// Every successful device read the pool issued (demand + readahead);
  /// conservation: misses + issued == device_reads at quiescence.
  uint64_t device_reads = 0;
};

/// Victim metadata handed to eviction observers: which page left the
/// pool, its stored max weight, its ranking-aware replacement value
/// (max_weight * w_{q,t} under the published query context, 0 when the
/// term is not in it) and its age in fetches since it was placed in the
/// frame. `policy_victim` is true when the replacement policy chose the
/// frame (OnEvict ran); false when a prefetch-tagged frame — which the
/// policy never knew — was reclaimed.
struct EvictionEvent {
  PageId page;
  double max_weight = 0.0;
  double value = 0.0;
  uint64_t age_fetches = 0;
  bool policy_victim = true;
};

/// A fixed-capacity, thread-safe buffer pool over the simulated disk.
class ConcurrentBufferPool final : public buffer::FrameDirectory,
                                   public buffer::BufferPool {
 public:
  /// Observes every frame eviction, called under the pool latch, before
  /// the frame is reused. Replacement-policy studies and victim-sequence
  /// tests hook in here; keep the callback trivial.
  using EvictionObserver = std::function<void(const EvictionEvent&)>;

  /// The disk must outlive the pool. The policy is
  /// MakePolicy(options.policy).
  ConcurrentBufferPool(const storage::SimulatedDisk* disk,
                       ConcurrentPoolOptions options);

  /// Runs `policy` (a configured instance, e.g. LruKPolicy(3)) instead
  /// of MakePolicy(options.policy).
  ConcurrentBufferPool(const storage::SimulatedDisk* disk,
                       ConcurrentPoolOptions options,
                       std::unique_ptr<buffer::ReplacementPolicy> policy);

  /// Joins the readahead workers, then checks the quiescent-state
  /// contracts (all pins released, stats conservation, device-read
  /// conservation, empty in-flight tables) under IRBUF_DCHECK.
  ~ConcurrentBufferPool() override;

  ConcurrentBufferPool(const ConcurrentBufferPool&) = delete;
  ConcurrentBufferPool& operator=(const ConcurrentBufferPool&) = delete;

  // BufferPool:
  Result<buffer::PinnedPage> FetchPinned(PageId id) override
      IRBUF_EXCLUDES(latch_mu_);

  /// b_t, from a relaxed atomic — a racy-but-honest estimate, exactly
  /// what BAF's d_t = max(p_t - b_t, 0) needs under concurrency.
  /// Prefetched pages count from the moment they are published: they
  /// are buffer-resident and a fetch of them will not read the disk.
  uint32_t ResidentPages(TermId term) const override {
    return term < term_resident_.size()
               ? term_resident_[term].load(std::memory_order_relaxed)
               : 0;
  }

  /// Standalone mode (no external context publisher): installs `context`
  /// for ranking-aware policies — the evaluators call this at the top of
  /// Evaluate. Once SetExternalContextMode(true)
  /// is set (by SharedQueryContext), the call becomes a no-op: the
  /// replacement context is then the merged weights of every in-flight
  /// query, published via PublishContext, and must not be clobbered by
  /// whichever query happens to start last.
  void SetQueryContext(buffer::QueryContext context) override
      IRBUF_EXCLUDES(latch_mu_);

  buffer::BufferStats StatsSnapshot() const override;

  /// Pages each scan reads ahead (== options.prefetch_depth); the
  /// evaluators' ReadaheadCursor slides its hints this far ahead.
  size_t PrefetchDepth() const override { return options_.prefetch_depth; }

  /// Enqueues hinted pages for the background I/O workers, starting a
  /// worker for a hint no idle worker will take (at most B workers).
  /// Pages already resident or already in flight are skipped (at
  /// dequeue time, so the hint path stays cheap); entries past the
  /// queue bound B are dropped and counted — a plan is a hint, not a
  /// contract. No-op when prefetch_depth == 0.
  void Prefetch(buffer::PageAccessPlan plan) override
      IRBUF_EXCLUDES(prefetch_mu_);

  /// Readahead/coalescing counters (relaxed; exact at quiescence).
  PoolPrefetchStats PrefetchStatsSnapshot() const;

  /// Installs a pre-merged replacement context (serving mode). The pool
  /// keeps the shared_ptr alive so the policy's raw pointer stays valid
  /// until the next publish.
  void PublishContext(std::shared_ptr<const buffer::QueryContext> context)
      IRBUF_EXCLUDES(latch_mu_);

  /// See SetQueryContext. Flipped on by SharedQueryContext::Attach.
  void SetExternalContextMode(bool external) {
    external_context_.store(external, std::memory_order_relaxed);
  }

  /// Installs `observer` (nullptr to clear). Install before traffic;
  /// runs under the latch.
  void SetEvictionObserver(EvictionObserver observer)
      IRBUF_EXCLUDES(latch_mu_) {
    MutexLock latch(latch_mu_);
    eviction_observer_ = std::move(observer);
  }

  /// Installs (or clears, with nullptr) the per-query tracer: every
  /// demand fetch is recorded tagged hit/miss, every eviction with its
  /// victim metadata, and every miss that needed a retry or met an open
  /// breaker. QueryTracer is single-threaded, so install it only on a
  /// pool with readahead off that one thread drives, and only while the
  /// pool is quiescent; the tracer must outlive its installation.
  void SetTracer(obs::QueryTracer* tracer);

  /// Drops every page (the paper flushes buffers between refinement
  /// sequences and between independent queries), prefetch-tagged frames
  /// included, and resets the policy and every b_t. Counters are left
  /// as they are. Quiescent use only: no pin, in-flight load or queued
  /// readahead hint may remain (IRBUF_DCHECK).
  void Flush() IRBUF_EXCLUDES(latch_mu_);

  /// Resolves the buffer.* metric handles in `registry` (fetches, hits,
  /// misses, evictions, the eviction_victim_age histogram, the
  /// prefetch_* readahead counters and coalesced_misses). Call before
  /// serving starts; pass nullptr to unbind. `prefix` replaces the
  /// leading "buffer" of every instrument name — the sharded pool binds
  /// its per-shard pools as "shard0.buffer", "shard1.buffer", ... so
  /// shard hit rates are individually observable in one registry.
  void BindMetrics(obs::MetricsRegistry* registry,
                   const std::string& prefix = "buffer");

  const char* policy_name() const {
    MutexLock lock(latch_mu_);
    return policy_->name();
  }

  /// Pins currently held on `id`'s frame (0 when not resident). Test
  /// helper; the answer may be stale by the time it returns.
  uint32_t PinCount(PageId id) const;

  /// All resident page ids, in frame order. Quiescent test helper.
  std::vector<PageId> ResidentPageIds() const IRBUF_EXCLUDES(latch_mu_);

  /// Null unless options.resilience.enabled constructed one.
  const fault::ResilientReader* resilience() const {
    return resilient_.get();
  }

  /// Wait accounting for the pool-wide policy latch / the page-table
  /// stripes (all 16 stripes share the one stats object — the question
  /// is "how long do fetches wait", not "which stripe"). Populated only
  /// when options.profile_contention is on; non-const so callers can
  /// Bind an obs::MutexWaitBinding or Reset between measurement cells.
  MutexWaitStats* latch_wait_stats() { return &latch_waits_; }
  MutexWaitStats* stripe_wait_stats() { return &stripe_waits_; }

  // FrameDirectory (policy callbacks run under the latch):
  const buffer::FrameMeta& Meta(buffer::FrameId frame) const override {
    return frames_[frame].meta;
  }
  size_t capacity() const override { return frames_.size(); }

 private:
  struct Frame {
    storage::Page page;
    buffer::FrameMeta meta;  // Guarded by latch_mu_.
    uint64_t insert_tick = 0;  // Guarded by latch_mu_.
    /// Published by a readahead worker and not yet demand-touched: the
    /// replacement policy does not know this frame (no OnInsert ran);
    /// it lives in prefetch_window_ instead. Guarded by latch_mu_.
    bool prefetch_tagged = false;
    /// Outstanding pins; > 0 makes the frame ineligible for eviction.
    /// fetch_sub uses release so a reader's last page access
    /// happens-before the frame's reuse (evictors load with acquire).
    std::atomic<uint32_t> pins{0};
  };

  /// One in-flight page load (see the phase diagram atop this file).
  /// The entry lives in its stripe's `loads` table from the moment a
  /// loader claims the page until the load publishes (kResident) or
  /// fails (kFailed); both terminal phases erase the entry.
  struct PageLoad {
    /// A demand fetch is waiting on this load; a joined readahead
    /// publishes promoted (OnInsert, untagged, counted prefetch_used).
    bool demand_joined = false;
  };

  /// A stripe's in-flight table. It holds one entry per load running
  /// in the stripe — a handful at most — so a flat vector scanned
  /// linearly beats hashing, and a miss allocates nothing once the
  /// stripe has seen its peak number of concurrent loads.
  class LoadTable {
   public:
    /// The load of `key`, or null when none is in flight.
    PageLoad* Find(uint64_t key) {
      for (Slot& slot : slots_) {
        if (slot.key == key) return &slot.load;
      }
      return nullptr;
    }
    void Add(uint64_t key, PageLoad load) { slots_.push_back({key, load}); }
    void Erase(uint64_t key) {
      for (Slot& slot : slots_) {
        if (slot.key == key) {
          slot = slots_.back();
          slots_.pop_back();
          return;
        }
      }
    }
    bool empty() const { return slots_.empty(); }

   private:
    struct Slot {
      uint64_t key;
      PageLoad load;
    };
    std::vector<Slot> slots_;
  };

  /// One slice of the page table.
  struct Stripe {
    /// Acquired after latch_mu_ when both are needed (see the
    /// lock-ordering table in DESIGN.md); never held while acquiring
    /// latch_mu_.
    Mutex mu;
    CondVar cv;
    /// Resident pages of this slice: packed PageId -> frame.
    std::unordered_map<uint64_t, buffer::FrameId> pages IRBUF_GUARDED_BY(mu);
    /// In-flight table: pages currently being loaded, demand or
    /// readahead, keyed by packed PageId.
    LoadTable loads IRBUF_GUARDED_BY(mu);
  };

  static constexpr size_t kStripes = 16;

  Stripe& StripeFor(uint64_t key) {
    // Pack() keeps the term in the high bits; mix so consecutive pages
    // of one hot term spread over stripes.
    return stripes_[(key * 0x9E3779B97F4A7C15ull) >> 60];
  }
  const Stripe& StripeFor(uint64_t key) const {
    return const_cast<ConcurrentBufferPool*>(this)->StripeFor(key);
  }

  // BufferPool:
  void Unpin(uint32_t frame) override;

  /// Delivers `frame`'s victim metadata to the tracer, the victim-age
  /// histogram and the eviction observer (whichever are installed),
  /// while the frame still holds the victim.
  void ObserveEvictionLocked(buffer::FrameId frame, bool policy_victim)
      IRBUF_REQUIRES(latch_mu_);

  /// Evicts one unpinned, untagged frame and returns it, or
  /// kInvalidFrame when every such frame is pinned. Prefetch-tagged
  /// frames are invisible here — the policy never knew them, so neither
  /// ChooseVictim nor the fallback scan may pick one (reclaim is
  /// separate, see ReclaimPrefetchedLocked). Takes the victim's stripe
  /// mutex nested inside the latch (the one legal nesting order).
  buffer::FrameId EvictOneLocked() IRBUF_REQUIRES(latch_mu_);

  /// Reclaims the oldest unpinned prefetch-tagged frame (FIFO over the
  /// window), counting it prefetch_wasted, or returns kInvalidFrame if
  /// none can be freed. No policy callback runs — the policy never saw
  /// the frame.
  buffer::FrameId ReclaimPrefetchedLocked() IRBUF_REQUIRES(latch_mu_);

  /// Promotes a prefetch-tagged frame on its first demand touch: the
  /// policy finally learns the frame (OnInsert — to the policy this IS
  /// the insertion), the tag clears, the window forgets it and
  /// prefetch_used is counted.
  void PromoteLocked(buffer::FrameId frame) IRBUF_REQUIRES(latch_mu_);

  /// Erases `key` from its stripe's in-flight table and wakes waiters
  /// (the load failed or could not get a frame; waiters retry as
  /// loaders).
  void AbandonLoad(uint64_t key);

  /// Runs one disk read into `frame.page` with no pool lock held:
  /// BeginRead, the simulated device delay, then FinishRead — the
  /// kReading and kDecoding phases (retries re-enter kReading). Wraps
  /// the attempts in the resilient reader when one is configured and in
  /// a kMissRead (demand) or kPrefetchIssue (readahead) span. Counts
  /// device_reads_ on success.
  Status ExecuteLoad(PageId id, Frame& frame, bool prefetch)
      IRBUF_EXCLUDES(latch_mu_);

  /// Returns the reservation frame for a failed load to the free list
  /// and abandons the in-flight entry.
  void ReleaseFailedLoad(uint64_t key, buffer::FrameId frame)
      IRBUF_EXCLUDES(latch_mu_);

  /// Background I/O worker: drains prefetch_queue_ until shutdown,
  /// counted in idle_workers_ while it waits for a hint.
  void PrefetchWorkerLoop();

  /// Loads one hinted page end to end (dequeue side of Prefetch).
  void PrefetchOne(PageId id);

  struct MetricHandles {
    obs::Counter* fetches = nullptr;
    obs::Counter* hits = nullptr;
    obs::Counter* misses = nullptr;
    obs::Counter* evictions = nullptr;
    obs::Counter* prefetch_issued = nullptr;
    obs::Counter* prefetch_used = nullptr;
    obs::Counter* prefetch_wasted = nullptr;
    obs::Counter* prefetch_dropped = nullptr;
    obs::Counter* coalesced_misses = nullptr;
    obs::Histogram* victim_age = nullptr;
  };

  const storage::SimulatedDisk* disk_;
  const ConcurrentPoolOptions options_;

  std::array<Stripe, kStripes> stripes_;

  /// Pool-wide latch: policy_, free_frames_, frame metadata, fetch_tick_,
  /// the prefetch-tagged window and context_. Lock order: latch_mu_
  /// before any stripe mutex.
  mutable Mutex latch_mu_;
  /// The unique_ptr is set once at construction; the policy object's
  /// internal state mutates under the latch, hence PT_GUARDED_BY.
  std::unique_ptr<buffer::ReplacementPolicy> policy_
      IRBUF_PT_GUARDED_BY(latch_mu_);
  std::vector<buffer::FrameId> free_frames_ IRBUF_GUARDED_BY(latch_mu_);
  uint64_t fetch_tick_ IRBUF_GUARDED_BY(latch_mu_) = 0;
  /// The published replacement context; owning pointer keeps the
  /// QueryContext the policy points at alive.
  std::shared_ptr<const buffer::QueryContext> context_
      IRBUF_GUARDED_BY(latch_mu_);
  /// FIFO of prefetch-tagged frames, oldest first; bounded by
  /// readahead_bound_. Frames leave on promotion or reclaim.
  std::deque<buffer::FrameId> prefetch_window_ IRBUF_GUARDED_BY(latch_mu_);
  EvictionObserver eviction_observer_ IRBUF_GUARDED_BY(latch_mu_);
  /// Set only while quiescent (see SetTracer); read on the fetch path
  /// and under the latch.
  obs::QueryTracer* tracer_ = nullptr;

  std::vector<Frame> frames_;
  std::vector<std::atomic<uint32_t>> term_resident_;
  std::atomic<bool> external_context_{false};

  // Counters are incremented pairwise (fetches with exactly one of
  // hits/misses), so fetches == hits + misses holds at quiescence; and
  // misses_ + prefetch_issued_ == device_reads_ (every successful read
  // is counted once, demand or readahead — coalescing makes it exact).
  std::atomic<uint64_t> fetches_{0};
  std::atomic<uint64_t> hits_{0};
  std::atomic<uint64_t> misses_{0};
  std::atomic<uint64_t> evictions_{0};
  std::atomic<uint64_t> device_reads_{0};
  std::atomic<uint64_t> prefetch_issued_{0};
  std::atomic<uint64_t> prefetch_used_{0};
  std::atomic<uint64_t> prefetch_wasted_{0};
  std::atomic<uint64_t> prefetch_dropped_{0};
  std::atomic<uint64_t> coalesced_misses_{0};
  MetricHandles metrics_;
  /// Contention accounting the constructor attaches to latch_mu_ and
  /// every stripe mutex when options.profile_contention is set.
  MutexWaitStats latch_waits_{"pool.latch"};
  MutexWaitStats stripe_waits_{"pool.stripe"};
  /// Thread-safe miss-path retry/breaker wrapper; null = plain reads.
  std::unique_ptr<fault::ResilientReader> resilient_;

  /// B = min(max(64, 8*prefetch_depth), capacity/2), at least 1; 0 with
  /// readahead off. Bounds the hint queue, the I/O workers and the
  /// prefetch-tagged window.
  const size_t readahead_bound_;

  /// Readahead plumbing. prefetch_mu_ is a leaf lock protecting only
  /// the hint queue, the worker set and the stop flag: Prefetch()
  /// enqueues under it and the workers dequeue under it, but all actual
  /// load work (frame reservation, I/O, publish) runs with it released,
  /// so the hint path never serializes against the latch or a stripe.
  mutable Mutex prefetch_mu_;
  CondVar prefetch_cv_;
  std::deque<uint64_t> prefetch_queue_ IRBUF_GUARDED_BY(prefetch_mu_);
  bool prefetch_stop_ IRBUF_GUARDED_BY(prefetch_mu_) = false;
  /// Workers waiting on prefetch_cv_ for a hint.
  size_t idle_workers_ IRBUF_GUARDED_BY(prefetch_mu_) = 0;
  /// Started by Prefetch, at most readahead_bound_; joined (in order)
  /// by the destructor after prefetch_stop_ is set.
  std::vector<std::thread> prefetch_workers_ IRBUF_GUARDED_BY(prefetch_mu_);
};

}  // namespace irbuf::serve

#endif  // IRBUF_SERVE_CONCURRENT_BUFFER_POOL_H_
