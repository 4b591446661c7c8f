// The one monotonic nanosecond clock the instrumentation layers share:
// the query record (obs/span.h: spans and the instants between them),
// lock-contention measurement (util/mutex.h) and the serving path's
// latency accounting all read MonotonicNowNs so their timestamps live on
// a single timebase and a Chrome trace built from them lines up. fault::MonotonicNowUs remains the coarser
// microsecond view used by deadlines and backoff schedules.
//
// Hot-path discipline: timing reads are only ever taken behind an
// enabled-check (a null SpanRecorder / uninstrumented Mutex never reads
// the clock), and the `raw-clock` lint rule keeps ad-hoc
// steady_clock::now() calls out of the hot subsystems so every timing
// source stays auditable here.

#ifndef IRBUF_UTIL_MONOTONIC_CLOCK_H_
#define IRBUF_UTIL_MONOTONIC_CLOCK_H_

#include <chrono>
#include <cstdint>

namespace irbuf {

/// Monotonic nanoseconds since an arbitrary (per-process) epoch.
inline uint64_t MonotonicNowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

}  // namespace irbuf

#endif  // IRBUF_UTIL_MONOTONIC_CLOCK_H_
