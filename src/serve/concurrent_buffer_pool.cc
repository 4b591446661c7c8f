#include "serve/concurrent_buffer_pool.h"

#include <algorithm>

#include "buffer/contracts.h"
#include "fault/backoff.h"
#include "util/monotonic_clock.h"
#include "util/str.h"

namespace irbuf::serve {
namespace {

/// B = min(max(64, 8*depth), capacity/2), at least 1; 0 with readahead
/// off (see ConcurrentPoolOptions::prefetch_depth).
size_t ReadaheadBound(size_t depth, size_t capacity) {
  if (depth == 0) return 0;
  return std::max<size_t>(
      1, std::min(std::max<size_t>(64, depth * 8), capacity / 2));
}

}  // namespace

ConcurrentBufferPool::ConcurrentBufferPool(const storage::SimulatedDisk* disk,
                                           ConcurrentPoolOptions options)
    : ConcurrentBufferPool(disk, options, buffer::MakePolicy(options.policy)) {}

ConcurrentBufferPool::ConcurrentBufferPool(
    const storage::SimulatedDisk* disk, ConcurrentPoolOptions options,
    std::unique_ptr<buffer::ReplacementPolicy> policy)
    : disk_(disk),
      options_(options),
      policy_(std::move(policy)),
      frames_(options.capacity == 0 ? 1 : options.capacity),
      term_resident_(disk->num_terms()),
      readahead_bound_(
          ReadaheadBound(options.prefetch_depth, frames_.size())) {
  free_frames_.reserve(frames_.size());
  // Hand out low frame ids first (push high ids so they pop last).
  for (size_t i = frames_.size(); i > 0; --i) {
    free_frames_.push_back(static_cast<buffer::FrameId>(i - 1));
  }
  if (options_.resilience.enabled) {
    resilient_ =
        std::make_unique<fault::ResilientReader>(options_.resilience);
  }
  if (options_.profile_contention) {
    // Attached before any worker can reach the pool, so the mutexes
    // never flip instrumentation modes under concurrent traffic.
    latch_mu_.TrackContention(&latch_waits_);
    for (Stripe& stripe : stripes_) stripe.mu.TrackContention(&stripe_waits_);
  }
  policy_->Attach(this);
}

ConcurrentBufferPool::~ConcurrentBufferPool() {
  std::vector<std::thread> workers;
  {
    MutexLock lock(prefetch_mu_);
    prefetch_stop_ = true;
    workers.swap(prefetch_workers_);
  }
  prefetch_cv_.NotifyAll();
  for (std::thread& worker : workers) worker.join();
  // Quiescent-state contracts: every PinnedPage guard must have been
  // released (a live guard would read a destroyed frame), every
  // in-flight load must have reached a terminal state, and with no
  // fetch in flight the counters must conserve exactly — including the
  // device-read identity that coalescing makes exact.
  for (const Frame& f : frames_) {
    IRBUF_DCHECK(f.pins.load(std::memory_order_relaxed) == 0,
                 "pool destroyed with outstanding pins");
  }
  for (Stripe& stripe : stripes_) {
    MutexLock stripe_lock(stripe.mu);
    IRBUF_DCHECK(stripe.loads.empty(),
                 "pool destroyed with in-flight page loads");
  }
  buffer::contracts::CheckStatsConservation(
      fetches_.load(std::memory_order_relaxed),
      hits_.load(std::memory_order_relaxed),
      misses_.load(std::memory_order_relaxed));
  buffer::contracts::CheckDiskReadConservation(
      misses_.load(std::memory_order_relaxed),
      prefetch_issued_.load(std::memory_order_relaxed),
      device_reads_.load(std::memory_order_relaxed));
}

Result<buffer::PinnedPage> ConcurrentBufferPool::FetchPinned(PageId id) {
  // kPagePin covers the whole fetch: stripe lookup, policy latch, and
  // (on a miss) the nested kMissRead. Only here is hit or miss known.
  obs::ScopedSpan pin_span(options_.span_recorder, obs::SpanStage::kPagePin,
                           id.term, id.page_no);
  const uint64_t key = id.Pack();
  Stripe& stripe = StripeFor(key);
  buffer::FrameId hit_frame = buffer::kInvalidFrame;
  bool joined_load = false;
  uint64_t wait_start_ns = 0;
  {
    MutexLock stripe_lock(stripe.mu);
    for (;;) {
      auto it = stripe.pages.find(key);
      if (it != stripe.pages.end()) {
        hit_frame = it->second;
        // Pinning under the stripe mutex excludes the eviction path,
        // which re-checks pins under this same mutex.
        frames_[hit_frame].pins.fetch_add(1, std::memory_order_relaxed);
        break;
      }
      PageLoad* load = stripe.loads.Find(key);
      if (load == nullptr) {
        stripe.loads.Add(key, PageLoad{});  // We become the loader.
        break;
      }
      // Another thread — a demand loader or a readahead worker — is
      // already reading this page. Join its load instead of issuing a
      // duplicate read, and wait for a terminal transition: kResident
      // publishes the mapping (we wake to a hit), kFailed erases the
      // entry (we retry as the loader).
      load->demand_joined = true;
      if (!joined_load && options_.span_recorder != nullptr) {
        wait_start_ns = MonotonicNowNs();
      }
      joined_load = true;
      while (stripe.pages.count(key) == 0 &&
             stripe.loads.Find(key) != nullptr) {
        stripe.cv.Wait(stripe.mu);
      }
    }
  }
  if (joined_load && options_.span_recorder != nullptr) {
    // Time blocked on someone else's load is async-wait — charged to
    // this query, but it is not miss I/O and must not inflate kMissRead.
    options_.span_recorder->RecordManual(
        obs::SpanStage::kAsyncWait, wait_start_ns, MonotonicNowNs(),
        options_.span_recorder->BufferForThisThread()->current_query,
        id.term);
  }

  if (hit_frame != buffer::kInvalidFrame) {
    if (obs::Span* record = pin_span.record()) record->hit = true;
    fetches_.fetch_add(1, std::memory_order_relaxed);
    hits_.fetch_add(1, std::memory_order_relaxed);
    if (joined_load) {
      // This fetch would have been a duplicate disk read before
      // coalescing; it shared the loader's read instead.
      coalesced_misses_.fetch_add(1, std::memory_order_relaxed);
    }
    {
      MutexLock latch(latch_mu_);
      ++fetch_tick_;
      if (frames_[hit_frame].prefetch_tagged) {
        PromoteLocked(hit_frame);
      } else {
        policy_->OnHit(hit_frame);
      }
    }
    return buffer::PinnedPage(this, &frames_[hit_frame].page, hit_frame,
                              /*was_miss=*/false);
  }

  // Loader path: reserve a frame under the latch; read with no lock held.
  buffer::FrameId frame = buffer::kInvalidFrame;
  uint64_t tick = 0;
  {
    MutexLock latch(latch_mu_);
    tick = ++fetch_tick_;
    if (!free_frames_.empty()) {
      frame = free_frames_.back();
      free_frames_.pop_back();
    } else {
      frame = EvictOneLocked();
      if (frame == buffer::kInvalidFrame) {
        // Every untagged frame is pinned: cannibalize the readahead
        // window rather than failing the fetch.
        frame = ReclaimPrefetchedLocked();
      }
    }
    if (frame != buffer::kInvalidFrame) {
      // Reserve: the frame is unmapped, so this pin (which becomes the
      // caller's pin on success) is the only thing keeping eviction away.
      frames_[frame].pins.store(1, std::memory_order_relaxed);
    }
  }
  if (frame == buffer::kInvalidFrame) {
    AbandonLoad(key);
    return Status::ResourceExhausted(
        StrFormat("all %zu frames pinned; pool capacity must exceed the "
                  "number of concurrently pinned pages",
                  frames_.size()));
  }

  // The disk decodes straight into the frame's page: the frame caches
  // the decoded PostingBlock (hits hand evaluators the block with zero
  // decode work) and recycles its buffers across evictions, so a warmed
  // pool's miss path performs no allocation either. The read, the
  // simulated device delay and the decode (plus any allocation a cold
  // frame needs) all happen in ExecuteLoad, with no lock held.
  Frame& f = frames_[frame];
  const Status read = ExecuteLoad(id, f, /*prefetch=*/false);
  if (!read.ok()) {
    ReleaseFailedLoad(key, frame);
    return read;
  }

  // Counted only after the read succeeded, so misses == demand disk
  // reads, exactly (coalescing leaves no duplicate-read window).
  fetches_.fetch_add(1, std::memory_order_relaxed);
  misses_.fetch_add(1, std::memory_order_relaxed);

  {
    MutexLock latch(latch_mu_);
    f.meta.page = id;
    f.meta.max_weight = f.page.max_weight;
    f.meta.occupied = true;
    f.insert_tick = tick;
    f.prefetch_tagged = false;
    if (id.term < term_resident_.size()) {
      term_resident_[id.term].fetch_add(1, std::memory_order_relaxed);
    }
    policy_->OnInsert(frame);
    // Publish the mapping only after the policy knows the frame, nested
    // inside the latch (lock order latch -> stripe), so a hitter's
    // OnHit can never reach the policy before our OnInsert.
    {
      MutexLock stripe_lock(stripe.mu);
      stripe.loads.Erase(key);
      stripe.pages.emplace(key, frame);
    }
    stripe.cv.NotifyAll();
  }
  return buffer::PinnedPage(this, &f.page, frame, /*was_miss=*/true);
}

Status ConcurrentBufferPool::ExecuteLoad(PageId id, Frame& frame,
                                         bool prefetch) {
  const auto read_once = [&]() -> Status {
    // kReading: the simulated device transfer. A retrying attempt
    // re-enters it here.
    storage::SimulatedDisk::PageReadOp op;
    IRBUF_RETURN_NOT_OK(disk_->BeginRead(id, &op));
    if (options_.io_delay_us_per_miss > 0) {
      fault::SleepUs(static_cast<uint64_t>(
          static_cast<double>(options_.io_delay_us_per_miss) *
          op.latency_multiplier));
    }
    // kDecoding: CRC + decode on this thread, while other loads'
    // transfers are outstanding concurrently — page n decodes while
    // page n+1's read is in flight.
    return disk_->FinishRead(id, op, &frame.page);
  };
  // The span covers the whole lock-free load — the read (retries
  // included), the simulated device delay and the decode — which is
  // what the attribution table should charge a miss (or a readahead
  // slot) with.
  obs::ScopedSpan load_span(options_.span_recorder,
                            prefetch ? obs::SpanStage::kPrefetchIssue
                                     : obs::SpanStage::kMissRead,
                            id.term, id.page_no);
  fault::ReadOutcome outcome;
  const Status status = resilient_ != nullptr
                            ? resilient_->Read(id, read_once, &outcome)
                            : read_once();
  if (obs::Span* record = load_span.record()) {
    record->hit = status.ok();
    record->n = resilient_ != nullptr ? outcome.attempts : 1;
    if (outcome.rejected_by_breaker) record->note = "rejected";
  }
  if (status.ok()) {
    device_reads_.fetch_add(1, std::memory_order_relaxed);
  }
  return status;
}

void ConcurrentBufferPool::ReleaseFailedLoad(uint64_t key,
                                             buffer::FrameId frame) {
  {
    MutexLock latch(latch_mu_);
    // The frame never left reservation (unmapped, sole pin), so the
    // plain store cannot race a hitter's fetch_add.
    frames_[frame].pins.store(0, std::memory_order_relaxed);
    free_frames_.push_back(frame);
  }
  AbandonLoad(key);
}

void ConcurrentBufferPool::ObserveEvictionLocked(buffer::FrameId frame,
                                                 bool policy_victim) {
  obs::SpanRecorder* const spans = options_.span_recorder;
  if (spans == nullptr && !eviction_observer_ && victim_age_ == nullptr) {
    return;
  }
  const Frame& f = frames_[frame];
  EvictionEvent ev;
  ev.page = f.meta.page;
  ev.max_weight = f.meta.max_weight;
  // RAP's Equation 6 under the published context.
  ev.value = context_ == nullptr
                 ? 0.0
                 : ev.max_weight * context_->WeightOf(ev.page.term);
  ev.age_fetches = fetch_tick_ - f.insert_tick;
  ev.policy_victim = policy_victim;
  if (spans != nullptr) {
    spans->RecordInstant({.term = ev.page.term,
                          .stage = obs::SpanStage::kEvict,
                          .page_no = ev.page.page_no,
                          .a = ev.max_weight,
                          .b = ev.value,
                          .n = ev.age_fetches});
  }
  if (victim_age_ != nullptr) {
    victim_age_->Observe(static_cast<double>(ev.age_fetches));
  }
  if (eviction_observer_) eviction_observer_(ev);
}

buffer::FrameId ConcurrentBufferPool::EvictOneLocked() {
  // A candidate can gain a pin between the probe and its stripe lock.
  // Never wait for a pin to drain while holding the latch (the pinner
  // may itself be blocked on the latch for its OnHit) — pick another
  // frame instead. Retries are bounded; in the degenerate case where
  // every re-check is foiled, the fetch reports ResourceExhausted.
  for (size_t attempt = 0; attempt <= frames_.size(); ++attempt) {
    buffer::FrameId candidate = policy_->ChooseVictim();
    if (candidate >= frames_.size() || !frames_[candidate].meta.occupied ||
        frames_[candidate].prefetch_tagged ||
        frames_[candidate].pins.load(std::memory_order_acquire) != 0) {
      // The policy's choice is unusable (pinned): fall back to the
      // oldest-inserted unpinned frame; exact policy order resumes once
      // the pins drain (pins are short, one page per reader).
      // Prefetch-tagged frames are skipped — the policy never saw them,
      // so they are not policy victims (ReclaimPrefetchedLocked handles
      // them).
      buffer::FrameId fallback = buffer::kInvalidFrame;
      for (buffer::FrameId i = 0; i < frames_.size(); ++i) {
        if (!frames_[i].meta.occupied || frames_[i].prefetch_tagged ||
            frames_[i].pins.load(std::memory_order_acquire) != 0) {
          continue;
        }
        if (fallback == buffer::kInvalidFrame ||
            frames_[i].insert_tick < frames_[fallback].insert_tick) {
          fallback = i;
        }
      }
      if (fallback == buffer::kInvalidFrame) return buffer::kInvalidFrame;
      candidate = fallback;
    }
    const PageId victim_page = frames_[candidate].meta.page;
    Stripe& vs = StripeFor(victim_page.Pack());
    MutexLock stripe_lock(vs.mu);
    if (frames_[candidate].pins.load(std::memory_order_acquire) != 0) {
      continue;  // Pinned while we took the stripe lock; try again.
    }
    buffer::contracts::CheckVictimEvictable(
        frames_[candidate].meta.occupied,
        frames_[candidate].pins.load(std::memory_order_acquire));
    // OnEvict and the observers run while the victim's metadata is
    // still readable.
    policy_->OnEvict(candidate);
    ObserveEvictionLocked(candidate, /*policy_victim=*/true);
    vs.pages.erase(victim_page.Pack());
    if (victim_page.term < term_resident_.size()) {
      term_resident_[victim_page.term].fetch_sub(1,
                                                 std::memory_order_relaxed);
    }
    frames_[candidate].meta.occupied = false;
    evictions_.fetch_add(1, std::memory_order_relaxed);
    return candidate;
  }
  return buffer::kInvalidFrame;
}

buffer::FrameId ConcurrentBufferPool::ReclaimPrefetchedLocked() {
  // Oldest tagged frame first (FIFO over the window): a reclaimed page
  // was read ahead but never demanded, which is the definition of a
  // wasted prefetch. The policy never knew the frame, so no OnEvict.
  for (size_t i = 0; i < prefetch_window_.size(); ++i) {
    const buffer::FrameId frame = prefetch_window_[i];
    Frame& f = frames_[frame];
    IRBUF_DCHECK(f.prefetch_tagged,
                 "prefetch window holds an untagged frame");
    const PageId victim_page = f.meta.page;
    Stripe& vs = StripeFor(victim_page.Pack());
    MutexLock stripe_lock(vs.mu);
    if (f.pins.load(std::memory_order_acquire) != 0) {
      // A demand fetch pinned it this instant and is about to promote:
      // that prefetch is anything but wasted. Pick the next-oldest.
      continue;
    }
    buffer::contracts::CheckVictimEvictable(
        f.meta.occupied, f.pins.load(std::memory_order_acquire));
    ObserveEvictionLocked(frame, /*policy_victim=*/false);
    vs.pages.erase(victim_page.Pack());
    if (victim_page.term < term_resident_.size()) {
      term_resident_[victim_page.term].fetch_sub(1,
                                                 std::memory_order_relaxed);
    }
    f.meta.occupied = false;
    f.prefetch_tagged = false;
    prefetch_window_.erase(prefetch_window_.begin() +
                           static_cast<ptrdiff_t>(i));
    evictions_.fetch_add(1, std::memory_order_relaxed);
    prefetch_wasted_.fetch_add(1, std::memory_order_relaxed);
    return frame;
  }
  return buffer::kInvalidFrame;
}

void ConcurrentBufferPool::PromoteLocked(buffer::FrameId frame) {
  Frame& f = frames_[frame];
  f.prefetch_tagged = false;
  f.insert_tick = fetch_tick_;
  for (auto it = prefetch_window_.begin(); it != prefetch_window_.end();
       ++it) {
    if (*it == frame) {
      prefetch_window_.erase(it);
      break;
    }
  }
  // To the replacement policy this IS the insertion: it never saw the
  // readahead publish, so the first demand touch runs OnInsert (not
  // OnHit) and victim choice before this touch was undistorted.
  policy_->OnInsert(frame);
  prefetch_used_.fetch_add(1, std::memory_order_relaxed);
}

void ConcurrentBufferPool::AbandonLoad(uint64_t key) {
  Stripe& stripe = StripeFor(key);
  {
    MutexLock stripe_lock(stripe.mu);
    stripe.loads.Erase(key);
  }
  stripe.cv.NotifyAll();
}

void ConcurrentBufferPool::Prefetch(buffer::PageAccessPlan plan) {
  if (readahead_bound_ == 0 || plan.empty()) return;
  size_t queued = 0;
  {
    MutexLock lock(prefetch_mu_);
    for (const PageId& id : plan) {
      if (prefetch_queue_.size() >= readahead_bound_) break;
      prefetch_queue_.push_back(id.Pack());
      ++queued;
      // A hint no idle worker will take gets a worker of its own, so
      // every scan's readahead runs concurrently up to the bound. The
      // new worker blocks on prefetch_mu_ until this call releases it.
      if (prefetch_queue_.size() > idle_workers_ &&
          prefetch_workers_.size() < readahead_bound_) {
        prefetch_workers_.emplace_back([this] { PrefetchWorkerLoop(); });
      }
    }
  }
  if (queued < plan.size()) {
    prefetch_dropped_.fetch_add(plan.size() - queued,
                                std::memory_order_relaxed);
  }
  for (size_t i = 0; i < queued; ++i) prefetch_cv_.NotifyOne();
}

void ConcurrentBufferPool::PrefetchWorkerLoop() {
  for (;;) {
    uint64_t key = 0;
    {
      MutexLock lock(prefetch_mu_);
      ++idle_workers_;
      while (!prefetch_stop_ && prefetch_queue_.empty()) {
        prefetch_cv_.Wait(prefetch_mu_);
      }
      --idle_workers_;
      if (prefetch_stop_) return;
      key = prefetch_queue_.front();
      prefetch_queue_.pop_front();
    }
    PrefetchOne(PageId{static_cast<TermId>(key >> 32),
                       static_cast<uint32_t>(key & 0xFFFFFFFFull)});
  }
}

void ConcurrentBufferPool::PrefetchOne(PageId id) {
  // Readahead never probes a tripped device: while the breaker is open
  // or half-open its single probe slot belongs to demand fetches, and a
  // hint holding it would make a concurrent demand fetch fail fast.
  if (resilient_ != nullptr && resilient_->breaker() != nullptr &&
      resilient_->breaker()->state() != fault::BreakerState::kClosed) {
    return;
  }
  const uint64_t key = id.Pack();
  Stripe& stripe = StripeFor(key);
  {
    MutexLock stripe_lock(stripe.mu);
    if (stripe.pages.count(key) != 0) return;  // Already resident.
    if (stripe.loads.Find(key) != nullptr) return;  // Already in flight.
    stripe.loads.Add(key, PageLoad{});
  }
  buffer::FrameId frame = buffer::kInvalidFrame;
  {
    MutexLock latch(latch_mu_);
    if (!free_frames_.empty()) {
      frame = free_frames_.back();
      free_frames_.pop_back();
    } else if (prefetch_window_.size() >= readahead_bound_) {
      // Window full: readahead recycles its own oldest page instead of
      // squeezing demand-resident pages out of the pool.
      frame = ReclaimPrefetchedLocked();
    }
    if (frame == buffer::kInvalidFrame) frame = EvictOneLocked();
    if (frame == buffer::kInvalidFrame) frame = ReclaimPrefetchedLocked();
    if (frame != buffer::kInvalidFrame) {
      frames_[frame].pins.store(1, std::memory_order_relaxed);
    }
  }
  if (frame == buffer::kInvalidFrame) {
    // No frame to spare: drop the hint. The demand fetch reads it later.
    AbandonLoad(key);
    return;
  }
  Frame& f = frames_[frame];
  const Status read = ExecuteLoad(id, f, /*prefetch=*/true);
  if (!read.ok()) {
    // A faulted readahead is silent: the frame returns to the free
    // list, the in-flight entry clears (joined waiters retry as
    // loaders), and the demand fetch performs its own resilient read —
    // degrading exactly as it would have without the hint.
    ReleaseFailedLoad(key, frame);
    return;
  }
  prefetch_issued_.fetch_add(1, std::memory_order_relaxed);

  {
    MutexLock latch(latch_mu_);
    f.meta.page = id;
    f.meta.max_weight = f.page.max_weight;
    f.meta.occupied = true;
    f.insert_tick = ++fetch_tick_;
    bool joined = false;
    {
      MutexLock stripe_lock(stripe.mu);
      if (PageLoad* load = stripe.loads.Find(key)) {
        joined = load->demand_joined;
        stripe.loads.Erase(key);
      }
      stripe.pages.emplace(key, frame);
    }
    if (joined) {
      // A demand fetch is already waiting on this load: publish
      // promoted — the page was demanded, just like a coalesced miss.
      f.prefetch_tagged = false;
      policy_->OnInsert(frame);
      prefetch_used_.fetch_add(1, std::memory_order_relaxed);
    } else {
      f.prefetch_tagged = true;
      // The window bound is hard, enforced where the window grows: even
      // with free frames to spare, readahead keeps at most B undemanded
      // pages and recycles its own oldest (prefetch_wasted) rather than
      // creeping over the pool.
      while (prefetch_window_.size() >= readahead_bound_) {
        const buffer::FrameId reclaimed = ReclaimPrefetchedLocked();
        if (reclaimed == buffer::kInvalidFrame) break;  // All pinned.
        free_frames_.push_back(reclaimed);
      }
      prefetch_window_.push_back(frame);
    }
    if (id.term < term_resident_.size()) {
      term_resident_[id.term].fetch_add(1, std::memory_order_relaxed);
    }
    stripe.cv.NotifyAll();
    // Drop the reservation pin. fetch_sub, not a store: the mapping is
    // already published, so a hitter may have pinned concurrently.
    f.pins.fetch_sub(1, std::memory_order_release);
  }
}

void ConcurrentBufferPool::Unpin(uint32_t frame) {
  if (frame < frames_.size()) {
    const uint32_t before =
        frames_[frame].pins.fetch_sub(1, std::memory_order_release);
    buffer::contracts::CheckPinRelease(before);
  }
}

void ConcurrentBufferPool::Flush() {
  {
    MutexLock lock(prefetch_mu_);
    IRBUF_DCHECK(prefetch_queue_.empty(),
                 "pool flushed with queued readahead hints");
  }
  MutexLock latch(latch_mu_);
  for (Stripe& stripe : stripes_) {
    MutexLock stripe_lock(stripe.mu);
    IRBUF_DCHECK(stripe.loads.empty(), "pool flushed with in-flight loads");
    stripe.pages.clear();
  }
  free_frames_.clear();
  for (size_t i = frames_.size(); i > 0; --i) {
    Frame& f = frames_[i - 1];
    IRBUF_DCHECK(f.pins.load(std::memory_order_relaxed) == 0,
                 "pool flushed with outstanding pins");
    // b_t counts occupied frames (prefetch-tagged ones included), so
    // zeroing the terms of occupied frames zeroes every nonzero b_t in
    // O(capacity), not O(num_terms).
    if (f.meta.occupied && f.meta.page.term < term_resident_.size()) {
      term_resident_[f.meta.page.term].store(0, std::memory_order_relaxed);
    }
    f.meta.occupied = false;
    f.prefetch_tagged = false;
    free_frames_.push_back(static_cast<buffer::FrameId>(i - 1));
  }
  prefetch_window_.clear();
  policy_->Reset();
}

std::vector<PageId> ConcurrentBufferPool::ResidentPageIds() const {
  MutexLock latch(latch_mu_);
  std::vector<PageId> out;
  for (const Frame& f : frames_) {
    if (f.meta.occupied) out.push_back(f.meta.page);
  }
  return out;
}

uint32_t ConcurrentBufferPool::PinCount(PageId id) const {
  const uint64_t key = id.Pack();
  auto& stripe = const_cast<ConcurrentBufferPool*>(this)->StripeFor(key);
  MutexLock stripe_lock(stripe.mu);
  auto it = stripe.pages.find(key);
  return it == stripe.pages.end()
             ? 0
             : frames_[it->second].pins.load(std::memory_order_relaxed);
}

void ConcurrentBufferPool::SetQueryContext(buffer::QueryContext context) {
  if (external_context_.load(std::memory_order_relaxed)) return;
  PublishContext(
      std::make_shared<const buffer::QueryContext>(std::move(context)));
}

void ConcurrentBufferPool::PublishContext(
    std::shared_ptr<const buffer::QueryContext> context) {
  if (context == nullptr) {
    context = std::make_shared<const buffer::QueryContext>();
  }
  MutexLock latch(latch_mu_);
  context_ = std::move(context);
  policy_->SetQueryContext(context_.get());
}

buffer::BufferStats ConcurrentBufferPool::StatsSnapshot() const {
  buffer::BufferStats s;
  s.fetches = fetches_.load(std::memory_order_relaxed);
  s.hits = hits_.load(std::memory_order_relaxed);
  s.misses = misses_.load(std::memory_order_relaxed);
  s.evictions = evictions_.load(std::memory_order_relaxed);
  return s;
}

PoolPrefetchStats ConcurrentBufferPool::PrefetchStatsSnapshot() const {
  PoolPrefetchStats s;
  s.issued = prefetch_issued_.load(std::memory_order_relaxed);
  s.used = prefetch_used_.load(std::memory_order_relaxed);
  s.wasted = prefetch_wasted_.load(std::memory_order_relaxed);
  s.dropped = prefetch_dropped_.load(std::memory_order_relaxed);
  s.coalesced_misses = coalesced_misses_.load(std::memory_order_relaxed);
  s.device_reads = device_reads_.load(std::memory_order_relaxed);
  return s;
}

void ConcurrentBufferPool::BindMetrics(obs::MetricsRegistry* registry,
                                       const std::string& prefix) {
  if (resilient_ != nullptr) resilient_->BindMetrics(registry);
  if (registry == nullptr) {
    counters_.Unbind();
    victim_age_ = nullptr;
    return;
  }
  counters_ = registry->BindSource(
      [this, prefix](const obs::Emit& emit) {
        const buffer::BufferStats s = StatsSnapshot();
        const PoolPrefetchStats p = PrefetchStatsSnapshot();
        emit(prefix + ".fetches", s.fetches);
        emit(prefix + ".hits", s.hits);
        emit(prefix + ".misses", s.misses);
        emit(prefix + ".evictions", s.evictions);
        emit(prefix + ".prefetch_issued", p.issued);
        emit(prefix + ".prefetch_used", p.used);
        emit(prefix + ".prefetch_wasted", p.wasted);
        emit(prefix + ".prefetch_dropped", p.dropped);
        emit(prefix + ".coalesced_misses", p.coalesced_misses);
      });
  victim_age_ = registry->AddHistogram(
      prefix + ".eviction_victim_age",
      {1.0, 4.0, 16.0, 64.0, 256.0, 1024.0, 4096.0},
      "eviction victim age in fetches since insertion");
}

}  // namespace irbuf::serve
