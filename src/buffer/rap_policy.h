// The paper's Ranking-Aware Policy (RAP), Section 3.3: the replacement
// value of a page is
//
//     value(page) = (max_d w_{d,t} on page) * w_{q,t}        (Equation 6)
//
// where w_{q,t} comes from the query currently being processed. The page
// with the lowest value is the victim. Consequences:
//  * first pages of inverted lists (highest stored weights) are retained;
//  * pages of terms dropped during refinement have w_{q,t} = 0 and are
//    evicted first, tail of the list before the head.
//
// Victim search is an exact scan, over cached keys. The paper notes a
// fully sorted frame queue is unnecessary as long as victims come from
// among the lowest-valued pages. Within one query a page's value is
// fixed (max_weight per page, w_{q,t} per query), so each resident
// frame's key — (value, page_no, term) — lives in a flat array: OnInsert
// sets it, and a context switch marks the values stale, to be recomputed
// once on the next ChooseVictim. The scan then reads that array alone,
// with no frame-table call or w_{q,t} lookup per frame, and picks the
// minimum under the order value ascending, page_no descending, term
// descending — the order of the plain scan over ValueOf it replaces, so
// victims are unchanged.

#ifndef IRBUF_BUFFER_RAP_POLICY_H_
#define IRBUF_BUFFER_RAP_POLICY_H_

#include <cstdint>
#include <vector>

#include "buffer/replacement_policy.h"

namespace irbuf::buffer {

class RapPolicy final : public ReplacementPolicy {
 public:
  const char* name() const override { return "RAP"; }

  void OnInsert(FrameId frame) override;
  void OnHit(FrameId /*frame*/) override {}
  void OnEvict(FrameId frame) override;
  FrameId ChooseVictim() override;
  /// `context` must stay unchanged until the next call (the pool
  /// publishes an immutable snapshot per query).
  void SetQueryContext(const QueryContext* context) override {
    context_ = context;
    values_stale_ = true;
  }
  void Reset() override;

  /// The replacement value the policy would assign to `frame` right now
  /// (exposed for tests and the ablation bench).
  double ValueOf(FrameId frame) const;

 private:
  /// A frame's victim key, valid while `resident`.
  struct Key {
    double value = 0.0;  // ValueOf(frame), unless values_stale_.
    /// page_no in the high half, term in the low: among equal values
    /// the higher rank goes first (tail before head, then higher term).
    uint64_t rank = 0;
    bool resident = false;
  };

  std::vector<Key> keys_;  // Indexed by frame id.
  const QueryContext* context_ = nullptr;
  bool values_stale_ = false;
};

}  // namespace irbuf::buffer

#endif  // IRBUF_BUFFER_RAP_POLICY_H_
