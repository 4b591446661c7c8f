// The candidate set A of the filtering algorithms: partial scores for
// documents that may end up among the n highest-ranked answers. Its size
// is the paper's memory metric — unfiltered evaluation frequently keeps
// accumulators for more than half the collection (Section 2.4).
//
// Implemented as a flat open-addressing table (power-of-two capacity,
// linear probing): one probe touches one cache line holding the key,
// where std::unordered_map chases a bucket pointer per lookup. The
// paper's algorithms never erase an accumulator mid-query, so the table
// is tombstone-free and probe chains never degrade. DocId 0xFFFFFFFF is
// reserved as the empty-slot sentinel (collections are bounded far
// below 2^32 documents).
//
// A membership bitmap (one bit per doc id, 64-bit words) sits in front
// of the table. Once the insertion threshold has cut the candidate set
// down, almost every posting is an add-mode FindOrNull for a document
// that is not a candidate; the bitmap answers those with one bit test
// instead of a probe chain, and a member's probe is a guaranteed hit.
// The bitmap covers ids below kBitmapIds (2 MiB of bits at most); keys
// at or above it, which no collection this system builds reaches, fall
// back to a plain table probe so a stray huge id cannot balloon memory.
//
// Reset, not rebuilt. The evaluators keep one set per evaluating thread
// and Clear() it between queries, so a query starts on the table, slot
// list and bitmap the previous queries grew instead of regrowing them
// from 16 slots. A dense slot list records the occupied slots in
// insertion order: Clear() empties exactly those slots and their bitmap
// words, in O(size) rather than O(capacity), and iteration (SelectTopN)
// walks the list instead of the half-empty table. The list is sized in
// Grow(), so an insertion only stores into it. A table left far larger
// than the query that just used it (at least kReleaseMinCapacity slots
// and over kReleaseRatio times that query's size) is released on
// Clear(): one huge DF query does not pin megabytes in every thread
// that ever evaluated it.

#ifndef IRBUF_CORE_ACCUMULATOR_SET_H_
#define IRBUF_CORE_ACCUMULATOR_SET_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "storage/types.h"
#include "util/dcheck.h"

namespace irbuf::core {

class AccumulatorSet {
 public:
  AccumulatorSet() = default;

  /// Pointer to d's accumulator, or nullptr when d is not a candidate.
  /// Never allocates: this is the probe the DF "add" mode and the
  /// quit/continue budget check issue once per posting. A non-member
  /// costs one bit test, and ids past the bitmap cost none unless a key
  /// at or above kBitmapIds was ever inserted.
  double* FindOrNull(DocId d) {
    const size_t w = d >> 6;
    if (w < bits_.size()) {
      if (((bits_[w] >> (d & 63)) & 1) == 0) return nullptr;
      size_t i = Hash(d) & mask_;
      while (keys_[i] != d) i = (i + 1) & mask_;
      return &vals_[i];
    }
    return has_far_keys_ ? ProbeFar(d) : nullptr;
  }
  const double* FindOrNull(DocId d) const {
    return const_cast<AccumulatorSet*>(this)->FindOrNull(d);
  }

  /// d's accumulator, inserted as 0.0 when absent (the DF "ins" mode:
  /// one probe sequence serves both the lookup and the insertion).
  double& FindOrInsert(DocId d) {
    bool inserted;
    return FindOrInsertImpl(d, &inserted);
  }

  /// Inserts a new accumulator and returns a reference to it. Like
  /// unordered_map::emplace, an already-present d keeps its current
  /// value (`initial` is only stored on true insertion).
  double& Insert(DocId d, double initial) {
    bool inserted;
    double& v = FindOrInsertImpl(d, &inserted);
    if (inserted) v = initial;
    return v;
  }

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  /// Table slots allocated (0 before the first insertion and after a
  /// release): what a reset keeps for the next query.
  size_t capacity() const { return mask_ == 0 ? 0 : mask_ + 1; }

  /// Empties the set in O(size): only the occupied slots and their
  /// bitmap words are reset, and the allocations are kept for the next
  /// query — unless the table is far larger than the query that just
  /// used it, in which case it is released (see the file comment).
  void Clear() {
    const size_t capacity = mask_ + 1;
    if (capacity >= kReleaseMinCapacity && size_ * kReleaseRatio < capacity) {
      *this = AccumulatorSet();
      return;
    }
    for (size_t n = 0; n < size_; ++n) {
      const uint32_t slot = slots_[n];
      const size_t w = keys_[slot] >> 6;
      if (w < bits_.size()) bits_[w] = 0;
      keys_[slot] = kEmpty;
    }
    has_far_keys_ = false;
    size_ = 0;
  }

  /// Iteration over (doc, accumulated score) in insertion order.
  /// SelectTopN's result does not depend on the order (WorseFirst is a
  /// total order on (score, doc)).
  class const_iterator {
   public:
    using value_type = std::pair<DocId, double>;

    value_type operator*() const {
      const uint32_t slot = set_->slots_[n_];
      return {set_->keys_[slot], set_->vals_[slot]};
    }
    const_iterator& operator++() {
      ++n_;
      return *this;
    }
    bool operator==(const const_iterator& o) const { return n_ == o.n_; }
    bool operator!=(const const_iterator& o) const { return n_ != o.n_; }

   private:
    friend class AccumulatorSet;
    const_iterator(const AccumulatorSet* set, size_t n) : set_(set), n_(n) {}

    const AccumulatorSet* set_;
    size_t n_;  // Position in the slot list.
  };

  const_iterator begin() const { return const_iterator(this, 0); }
  const_iterator end() const { return const_iterator(this, size_); }

 private:
  static constexpr DocId kEmpty = 0xFFFFFFFFu;
  static constexpr size_t kInitialCapacity = 16;
  static constexpr size_t kBitmapIds = size_t{1} << 24;
  /// Clear() releases a table of at least this many slots (~0.9 MiB of
  /// keys, values and slot list) when the query that just used it held
  /// fewer than 1/kReleaseRatio of them as accumulators. A table grown
  /// for N accumulators has 2N..4N slots, so the rule fires only after
  /// a query 8-16x smaller than the one that grew it.
  static constexpr size_t kReleaseMinCapacity = size_t{1} << 16;
  static constexpr size_t kReleaseRatio = 32;

  /// Fibonacci hashing: the golden-ratio multiplier spreads consecutive
  /// and strided doc ids across the table; the top product bits feed the
  /// mask (low multiply bits alone alias on stride-2^k patterns).
  static size_t Hash(DocId d) {
    return static_cast<size_t>(
        (static_cast<uint64_t>(d) * 0x9E3779B97F4A7C15ull) >> 32);
  }

  /// The bitmap-less probe, for ids the bitmap does not cover. The
  /// sentinel id would alias empty slots (the k == d test matches kEmpty
  /// first, handing back an unoccupied slot's value).
  double* ProbeFar(DocId d) {
    if (d == kEmpty) return nullptr;
    size_t i = Hash(d) & mask_;
    while (true) {
      const DocId k = keys_[i];
      if (k == d) return &vals_[i];
      if (k == kEmpty) return nullptr;
      i = (i + 1) & mask_;
    }
  }

  double& FindOrInsertImpl(DocId d, bool* inserted) {
    IRBUF_DCHECK(d != kEmpty, "DocId 0xFFFFFFFF is reserved");
    if ((d >> 6) >= bits_.size()) GrowBits(d);
    // Grow at 1/2 load. Inserting a new key walks a miss chain to an
    // empty slot, and linear-probing miss chains blow up quadratically
    // with load (~32 probes at 7/8 load vs ~2.5 at 1/2), so the table
    // trades memory — still well under the map's per-node overhead —
    // for guaranteed-short misses. Add-mode misses stop at the bitmap
    // and never walk a chain.
    if ((size_ + 1) * 2 > mask_ + 1) Grow();
    // LINT-HOT-LOOP: accumulator probe chain.
    size_t i = Hash(d) & mask_;
    while (true) {
      const DocId k = keys_[i];
      if (k == d) {
        *inserted = false;
        return vals_[i];
      }
      if (k == kEmpty) {
        keys_[i] = d;
        vals_[i] = 0.0;
        const size_t w = d >> 6;
        if (w < bits_.size()) bits_[w] |= uint64_t{1} << (d & 63);
        slots_[size_] = static_cast<uint32_t>(i);
        ++size_;
        *inserted = true;
        return vals_[i];
      }
      i = (i + 1) & mask_;
    }
    // LINT-HOT-LOOP-END
  }

  // Doubling growth: each element is moved O(1) times amortized, so the
  // per-posting cost inside the evaluator hot loops stays constant. The
  // slot list gets room for the most keys the new table holds at 1/2
  // load, and the rehash walks it in insertion order, rewriting each
  // entry to the key's new slot.
  // irbuf-analyzer: amortized-alloc
  void Grow() {
    const size_t new_cap = mask_ == 0 ? kInitialCapacity : (mask_ + 1) * 2;
    std::vector<DocId> old_keys = std::move(keys_);
    std::vector<double> old_vals = std::move(vals_);
    keys_.assign(new_cap, kEmpty);
    vals_.assign(new_cap, 0.0);
    slots_.resize(new_cap / 2);
    mask_ = new_cap - 1;
    for (size_t n = 0; n < size_; ++n) {
      const uint32_t old = slots_[n];
      size_t i = Hash(old_keys[old]) & mask_;
      while (keys_[i] != kEmpty) i = (i + 1) & mask_;
      keys_[i] = old_keys[old];
      vals_[i] = old_vals[old];
      slots_[n] = static_cast<uint32_t>(i);
    }
  }

  // Bitmap growth to cover doc id d: at least doubling, so ascending
  // insertions cost O(1) amortized, and never past kBitmapIds. The
  // bitmap stays under twice (largest inserted id)/8 bytes; it is
  // num_docs/8 when the first candidates already span the id range.
  // irbuf-analyzer: amortized-alloc
  void GrowBits(DocId d) {
    if (d >= kBitmapIds) {
      has_far_keys_ = true;
      return;
    }
    const size_t need = (static_cast<size_t>(d) >> 6) + 1;
    bits_.resize(std::min(std::max(need, bits_.size() * 2), kBitmapIds / 64),
                 0);
  }

  std::vector<DocId> keys_;
  std::vector<double> vals_;
  std::vector<uint32_t> slots_;  // [0, size_): occupied slots, in order.
  std::vector<uint64_t> bits_;   // Bit d set iff d is a key.
  bool has_far_keys_ = false;    // Some key is >= kBitmapIds.
  size_t size_ = 0;
  size_t mask_ = 0;  // capacity - 1; 0 while the table is unallocated.
};

}  // namespace irbuf::core

#endif  // IRBUF_CORE_ACCUMULATOR_SET_H_
