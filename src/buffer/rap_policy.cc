#include "buffer/rap_policy.h"

namespace irbuf::buffer {

void RapPolicy::OnInsert(FrameId frame) {
  if (keys_.size() <= frame) keys_.resize(frame + 1);
  const PageId page = directory_->Meta(frame).page;
  keys_[frame] = Key{ValueOf(frame),
                     (uint64_t{page.page_no} << 32) | uint64_t{page.term},
                     /*resident=*/true};
}

void RapPolicy::OnEvict(FrameId frame) { keys_[frame].resident = false; }

double RapPolicy::ValueOf(FrameId frame) const {
  const FrameMeta& meta = directory_->Meta(frame);
  double wq = context_ == nullptr ? 0.0 : context_->WeightOf(meta.page.term);
  return meta.max_weight * wq;
}

FrameId RapPolicy::ChooseVictim() {
  if (values_stale_) {
    for (FrameId f = 0; f < keys_.size(); ++f) {
      if (keys_[f].resident) keys_[f].value = ValueOf(f);
    }
    values_stale_ = false;
  }
  // The lowest value, then the highest rank. Equal values are common —
  // notably 0 for the pages of dropped terms — so the comparison is
  // written branch-free. Its outcome for every pair of keys, NaN values
  // included, is the plain scan's.
  FrameId victim = kInvalidFrame;
  double best_value = 0.0;
  uint64_t best_rank = 0;
  for (FrameId f = 0; f < keys_.size(); ++f) {
    const Key& k = keys_[f];
    const bool better =
        k.resident & ((victim == kInvalidFrame) | (k.value < best_value) |
                      ((k.value == best_value) & (k.rank > best_rank)));
    if (better) {
      victim = f;
      best_value = k.value;
      best_rank = k.rank;
    }
  }
  return victim;
}

void RapPolicy::Reset() {
  for (Key& k : keys_) k.resident = false;
}

}  // namespace irbuf::buffer
