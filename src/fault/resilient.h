// ResilientReader: the buffer pool's (serve::ConcurrentBufferPool) one
// retry loop, shared by demand misses and readahead reads. Wraps a
// page-read callback with
//
//   1. a circuit-breaker gate (fail fast while the device is down),
//   2. bounded retry with exponential backoff + jitter for retryable
//      codes (kUnavailable, kCorrupted — see StatusCodeIsRetryable),
//   3. metric accounting (fault.retries, fault.retry_success, ...).
//
// Disabled (the default) it is a single pass-through call with zero
// added branches on the read result path, which is what keeps p=0 runs
// bit-identical to a tree without the fault layer.
//
// Thread safety: Read() is called concurrently by the serving pool's
// workers. The breaker locks internally, counters are relaxed atomics,
// and the per-call backoff schedule seeds from (seed, page, call tick)
// so no generator state is shared.

#ifndef IRBUF_FAULT_RESILIENT_H_
#define IRBUF_FAULT_RESILIENT_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>

#include "fault/backoff.h"
#include "fault/circuit_breaker.h"
#include "obs/metrics.h"
#include "storage/types.h"
#include "util/status.h"

namespace irbuf::fault {

struct ResilienceOptions {
  /// Master switch; false = Read() is a bare pass-through.
  bool enabled = false;
  BackoffPolicy backoff;
  bool breaker_enabled = true;
  BreakerOptions breaker;
  /// Seeds the per-call jitter schedules.
  uint64_t seed = 1;
  /// False lets unit tests exercise the schedule without real delays
  /// (delays are still drawn and accounted, just not slept).
  bool sleep_on_backoff = true;
};

/// Per-call accounting, for callers that tag retries into a
/// QueryTracer (which is not thread-shared, so the reader cannot own
/// it).
struct ReadOutcome {
  /// Read attempts made (>= 1 unless the breaker rejected).
  uint32_t attempts = 0;
  /// Microseconds of backoff delay drawn across the retries.
  uint64_t backoff_us = 0;
  bool rejected_by_breaker = false;
};

class ResilientReader {
 public:
  explicit ResilientReader(ResilienceOptions options,
                           ClockFn breaker_clock = nullptr);

  ResilientReader(const ResilientReader&) = delete;
  ResilientReader& operator=(const ResilientReader&) = delete;

  using ReadFn = std::function<Status()>;

  /// Runs `read` for page `id` under the retry/breaker regime.
  /// Non-retryable errors (kNotFound, kIOError, ...) propagate
  /// unchanged on the first attempt; retryable ones surface only after
  /// the backoff schedule exhausts. A breaker rejection returns
  /// kUnavailable without invoking `read` at all.
  Status Read(PageId id, const ReadFn& read,
              ReadOutcome* outcome = nullptr);

  /// Resolves metric handles (fault.retries, fault.retry_success,
  /// fault.retries_exhausted, fault.corrupted_reads,
  /// fault.breaker_trips, fault.breaker_rejects). Pass nullptr to
  /// unbind.
  void BindMetrics(obs::MetricsRegistry* registry);

  bool enabled() const { return options_.enabled; }
  const ResilienceOptions& options() const { return options_; }
  /// Null when the breaker is disabled or resilience is off.
  const CircuitBreaker* breaker() const { return breaker_.get(); }

  uint64_t total_retries() const {
    return retries_.load(std::memory_order_relaxed);
  }
  uint64_t retries_exhausted() const {
    return exhausted_.load(std::memory_order_relaxed);
  }
  uint64_t corrupted_reads() const {
    return corrupted_.load(std::memory_order_relaxed);
  }

 private:
  const ResilienceOptions options_;
  std::unique_ptr<CircuitBreaker> breaker_;

  std::atomic<uint64_t> retries_{0};
  std::atomic<uint64_t> exhausted_{0};
  std::atomic<uint64_t> corrupted_{0};
  std::atomic<uint64_t> call_tick_{0};

  struct MetricHandles {
    obs::Counter* retries = nullptr;
    obs::Counter* retry_success = nullptr;
    obs::Counter* retries_exhausted = nullptr;
    obs::Counter* corrupted_reads = nullptr;
    obs::Counter* breaker_trips = nullptr;
    obs::Counter* breaker_rejects = nullptr;
  };
  MetricHandles metrics_;
};

}  // namespace irbuf::fault

#endif  // IRBUF_FAULT_RESILIENT_H_
