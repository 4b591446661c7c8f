// LINT-PATH: src/serve/raw_fetch_fixture.cc
// Fixture for the raw-fetch rule: serving/evaluator code must pin pages
// through the PinnedPage RAII protocol, never via raw FetchPage.

#include "serve/concurrent_buffer_pool.h"

namespace irbuf::serve {

template <typename UnpinnedPool>
void BadDirectFetch(UnpinnedPool& bm, PageId id) {
  auto page = bm.FetchPage(id);  // LINT-EXPECT: raw-fetch
  (void)page;
}

template <typename UnpinnedPool>
void BadPointerFetch(UnpinnedPool* bm, PageId id) {
  auto page = bm->FetchPage(id);  // LINT-EXPECT: raw-fetch
  (void)page;
}

void GoodPinnedFetch(ConcurrentBufferPool& pool, PageId id) {
  auto pinned = pool.FetchPinned(id);  // RAII guard: not flagged.
  (void)pinned;
}

// A mention of FetchPage in a comment is not a call.
// The old API was bm.FetchPage(id); do not use it here.

}  // namespace irbuf::serve
