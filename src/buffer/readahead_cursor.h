// Per-scan readahead: an evaluator scans one term's inverted list in page
// order, so it knows the pages it will fetch next. The cursor keeps the
// pool's PrefetchDepth() of those pages hinted ahead of the demand
// fetches, sliding one page forward per fetch.
//
// Two properties follow from the sliding window. Each scan keeps about
// `depth` reads in flight however many scans share the pool, so the
// readahead rate grows with the number of concurrent queries. And a scan
// that stops early — on f_add, or when quit/continue quits — leaves at
// most `depth` hinted pages it never demands.

#ifndef IRBUF_BUFFER_READAHEAD_CURSOR_H_
#define IRBUF_BUFFER_READAHEAD_CURSOR_H_

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>

#include "buffer/buffer_pool.h"
#include "storage/types.h"

namespace irbuf::buffer {

/// Readahead over pages [0, plan_end) of one term. Call BeforeFetch(n)
/// before each FetchPinned of page n. With depth 0 the cursor never
/// calls the pool and costs one compare per page.
class ReadaheadCursor {
 public:
  /// `depth` is the pool's PrefetchDepth(); `plan_end` the first page
  /// the scan is known never to reach (the clip at PagesToProcess or
  /// the page budget).
  ReadaheadCursor(BufferPool* pool, TermId term, size_t depth,
                  uint32_t plan_end)
      : pool_(pool),
        term_(term),
        depth_(depth),
        plan_end_(depth == 0 ? 0 : plan_end) {}

  /// Hints pages [max(next, n + 1), min(n + 1 + depth, plan_end)): on
  /// the first fetch the `depth` pages after n, afterwards normally
  /// just page n + depth. Page n itself is about to be demanded, so
  /// hinting it would only race the fetch.
  void BeforeFetch(uint32_t page_no) {
    if (next_ >= plan_end_) return;
    next_ = std::max(next_, page_no + 1);
    const uint32_t end = static_cast<uint32_t>(std::min<uint64_t>(
        uint64_t{page_no} + 1 + depth_, plan_end_));
    while (next_ < end) {
      // A fixed stack batch: no allocation per term or per page.
      std::array<PageId, 16> batch;
      size_t n = 0;
      for (; next_ < end && n < batch.size(); ++next_) {
        batch[n++] = PageId{term_, next_};
      }
      pool_->Prefetch(PageAccessPlan(batch.data(), n));
    }
  }

 private:
  BufferPool* pool_;
  TermId term_;
  size_t depth_;
  uint32_t plan_end_;
  /// First page not yet hinted.
  uint32_t next_ = 1;
};

}  // namespace irbuf::buffer

#endif  // IRBUF_BUFFER_READAHEAD_CURSOR_H_
