// The buffer subsystem's runtime contracts, checked by the buffer pool
// (serve::ConcurrentBufferPool) on its fetch, eviction and unpin paths
// and at destruction. Each helper guards one invariant that the
// thread-safety annotations and the lock-ordering table in DESIGN.md
// document statically; the death tests in
// tests/buffer/contracts_test.cc prove every check fires.

#ifndef IRBUF_BUFFER_CONTRACTS_H_
#define IRBUF_BUFFER_CONTRACTS_H_

#include <cstdint>

#include "util/dcheck.h"

namespace irbuf::buffer::contracts {

/// A pin is being released: the frame must currently hold at least one
/// pin, or the count would wrap negative and the frame could be evicted
/// while a reader still holds its page.
inline void CheckPinRelease(uint32_t pins_before_release) {
  IRBUF_DCHECK(pins_before_release > 0,
               "pin released on a frame with no outstanding pins");
}

/// A victim frame has been selected for eviction: it must be occupied
/// (evicting an empty frame corrupts the free list) and unpinned
/// (evicting a pinned frame dangles every outstanding PinnedPage).
inline void CheckVictimEvictable(bool occupied, uint32_t pins) {
  IRBUF_DCHECK(occupied, "eviction selected an unoccupied frame");
  IRBUF_DCHECK(pins == 0, "eviction selected a pinned frame");
}

/// Pool counters at a quiescent point: every fetch is exactly one hit
/// or one miss (and misses equal disk reads), so the totals must
/// conserve.
inline void CheckStatsConservation(uint64_t fetches, uint64_t hits,
                                   uint64_t misses) {
  IRBUF_DCHECK(fetches == hits + misses,
               "buffer stats conservation violated: fetches != hits + misses");
}

/// Device-read conservation at a quiescent point: every successful read
/// the pool issued to the device was counted exactly once, either as a
/// demand miss or as a readahead (prefetch) read. Miss coalescing makes
/// this exact — a second concurrent request for an in-flight page joins
/// the load instead of issuing a duplicate read — so a pool that reads
/// the device without accounting (the duplicate-read bug class) trips
/// this, not just the soft fetches==hits+misses identity.
inline void CheckDiskReadConservation(uint64_t misses,
                                      uint64_t prefetch_reads,
                                      uint64_t device_reads) {
  IRBUF_DCHECK(misses + prefetch_reads == device_reads,
               "device-read conservation violated: misses + prefetch reads "
               "!= device reads issued");
}

}  // namespace irbuf::buffer::contracts

#endif  // IRBUF_BUFFER_CONTRACTS_H_
