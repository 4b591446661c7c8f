// Shared helpers for the buffer tests: builds a tiny simulated disk with
// a known layout, and asks a pool whether a page is resident. Term t gets
// `pages_per_term[t]` pages; page p of term t stores
// max_weight = 100*(t+1) - p so that earlier pages always have the
// higher stored weight (as frequency-sorted lists do).

#ifndef IRBUF_TESTS_BUFFER_TEST_DISK_H_
#define IRBUF_TESTS_BUFFER_TEST_DISK_H_

#include <algorithm>
#include <memory>
#include <vector>

#include "serve/concurrent_buffer_pool.h"
#include "storage/simulated_disk.h"

namespace irbuf::buffer {

inline std::unique_ptr<storage::SimulatedDisk> MakeTestDisk(
    const std::vector<uint32_t>& pages_per_term) {
  auto disk = std::make_unique<storage::SimulatedDisk>();
  for (TermId t = 0; t < pages_per_term.size(); ++t) {
    for (uint32_t p = 0; p < pages_per_term[t]; ++p) {
      std::vector<Posting> postings = {
          {p * 2, 5}, {p * 2 + 1, 1}};  // Arbitrary valid content.
      double max_weight = 100.0 * (t + 1) - p;
      auto status = disk->AppendPage(t, postings, max_weight);
      if (!status.ok()) std::abort();
    }
  }
  return disk;
}

/// True when `id` is buffer-resident in `pool` (quiescent pools only).
inline bool Contains(const serve::ConcurrentBufferPool& pool, PageId id) {
  const std::vector<PageId> ids = pool.ResidentPageIds();
  return std::find(ids.begin(), ids.end(), id) != ids.end();
}

}  // namespace irbuf::buffer

#endif  // IRBUF_TESTS_BUFFER_TEST_DISK_H_
