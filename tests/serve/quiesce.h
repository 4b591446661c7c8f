// Test helper: waiting out a readahead pool's background I/O.

#ifndef IRBUF_TESTS_SERVE_QUIESCE_H_
#define IRBUF_TESTS_SERVE_QUIESCE_H_

#include <gtest/gtest.h>

#include <cstdint>

#include "fault/backoff.h"
#include "serve/concurrent_buffer_pool.h"
#include "storage/simulated_disk.h"

namespace irbuf::serve {

/// Waits until the pool's readahead has drained: every device read is
/// accounted (misses + issued == device_reads, and == the disk's own
/// read count when `disk` is given) and nothing moved for five polls
/// 20 ms apart — longer than any miss delay the tests use, so a read
/// still in flight would show.
inline void Quiesce(const ConcurrentBufferPool& pool,
                    const storage::SimulatedDisk* disk = nullptr) {
  uint64_t last = ~uint64_t{0};
  int stable = 0;
  for (int i = 0; i < 500 && stable < 5; ++i) {
    fault::SleepUs(20000);
    const PoolPrefetchStats prefetch = pool.PrefetchStatsSnapshot();
    const uint64_t reads = prefetch.device_reads;
    const bool settled =
        reads == pool.StatsSnapshot().misses + prefetch.issued &&
        (disk == nullptr || disk->stats().reads == reads);
    stable = settled && reads == last ? stable + 1 : 0;
    last = reads;
  }
  ASSERT_EQ(stable, 5) << "readahead never went quiet";
}

}  // namespace irbuf::serve

#endif  // IRBUF_TESTS_SERVE_QUIESCE_H_
