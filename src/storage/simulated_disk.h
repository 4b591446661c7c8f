// The simulated disk underneath the buffer manager. Pages are stored
// compressed (as a real frequency-sorted inverted file would be, [PZSD96]);
// a read decodes the page image and bumps the read counters, which are the
// paper's primary efficiency metric. The paper's own study runs entirely in
// memory and counts page reads the same way (Section 4).

#ifndef IRBUF_STORAGE_SIMULATED_DISK_H_
#define IRBUF_STORAGE_SIMULATED_DISK_H_

#include <atomic>
#include <cstdint>
#include <vector>

#include "fault/fault_injector.h"
#include "obs/metrics.h"
#include "obs/span.h"
#include "storage/codec.h"
#include "storage/page.h"
#include "storage/types.h"
#include "util/status.h"

namespace irbuf::storage {

/// Cumulative I/O accounting. `reads` is the headline metric (disk pages
/// read); `postings_decoded` tracks the decompression CPU cost, which the
/// paper notes is directly proportional to reads (Section 2.4).
struct DiskStats {
  uint64_t reads = 0;
  uint64_t postings_decoded = 0;
  uint64_t bytes_read = 0;
};

/// An append-once, read-many paged store with one "file" per term.
class SimulatedDisk {
 public:
  SimulatedDisk() = default;

  SimulatedDisk(const SimulatedDisk&) = delete;
  SimulatedDisk& operator=(const SimulatedDisk&) = delete;

  /// Appends the next page of `term`'s inverted list. Pages of one term
  /// must be appended in order; `postings` must be frequency-sorted.
  /// `max_weight` is the page's highest w_{d,t}, stored as page metadata
  /// for the RAP policy.
  Status AppendPage(TermId term, const std::vector<Posting>& postings,
                    double max_weight);

  /// Appends an already-encoded page image (the persistence load path).
  /// The image is decoded once to validate it and count its postings.
  Status AppendEncodedPage(TermId term, std::vector<uint8_t> image,
                           double max_weight);

  /// Reads (decodes) one page into `*out` and records the I/O. Every
  /// read verifies the page image against its stored CRC32C; a mismatch
  /// is kCorrupted. With a fault injector attached, the read may also
  /// fail kUnavailable (transient) or kIOError (permanent bad page).
  /// `latency_multiplier`, when non-null, receives the device-delay
  /// factor for this read (1.0 normally; > 1.0 under an injected
  /// latency spike) — reported even when the read fails, since the
  /// device spent the time before erroring.
  Status ReadPage(PageId id, Page* out,
                  double* latency_multiplier) const;
  Status ReadPage(PageId id, Page* out) const {
    return ReadPage(id, out, nullptr);
  }

  /// One in-flight two-phase read (see BeginRead/FinishRead): the
  /// device-transfer half's result, carried to the decode half. `image`
  /// borrows the stored page image — valid until the disk is destroyed
  /// (images are append-once, never mutated) — unless an injected
  /// bit-flip fired, in which case it points at the op's own `flipped`
  /// copy (retries then re-Begin and read the clean stored image).
  struct PageReadOp {
    const std::vector<uint8_t>* image = nullptr;
    std::vector<uint8_t> flipped;
    uint32_t stored_crc = 0;
    double max_weight = 0.0;
    double latency_multiplier = 1.0;
  };

  /// Phase 1 of a two-phase read: the simulated device transfer. Bounds
  /// checks, consults the fault injector (kUnavailable / kIOError
  /// surface here, and `op->latency_multiplier` carries any injected
  /// spike factor), and hands back the encoded image. No counters move
  /// yet — a read is only counted when FinishRead decodes successfully,
  /// exactly like the fused ReadPage.
  Status BeginRead(PageId id, PageReadOp* op) const;

  /// Phase 2: CRC verification (kCorrupted on mismatch) and posting-
  /// block decode into `*out`, recording the kCrcVerify/kBlockDecode
  /// spans and bumping the read counters on success. The async serve
  /// pool runs its simulated device delay between the phases so its
  /// in-flight table can distinguish "reading" from "decoding";
  /// ReadPage(id, out, mult) == BeginRead + FinishRead back to back.
  Status FinishRead(PageId id, const PageReadOp& op, Page* out) const;

  /// Number of pages in `term`'s inverted list (0 for unknown terms).
  uint32_t NumPages(TermId term) const {
    return term < files_.size()
               ? static_cast<uint32_t>(files_[term].size())
               : 0;
  }

  /// Page metadata without performing a read (used only by tests and the
  /// index builder; the evaluators never peek).
  double PageMaxWeight(PageId id) const;

  /// Raw compressed page image (persistence save path; not a "read").
  Result<const std::vector<uint8_t>*> PageImage(PageId id) const;

  size_t num_terms() const { return files_.size(); }
  uint64_t total_pages() const { return total_pages_; }
  uint64_t total_postings() const { return total_postings_; }
  uint64_t compressed_bytes() const { return compressed_bytes_; }

  /// Point-in-time copy of the read counters. Reads are counted with
  /// relaxed atomics, so concurrent readers (the serving subsystem) stay
  /// race-free; the snapshot is exact whenever the disk is quiesced.
  DiskStats stats() const {
    DiskStats s;
    s.reads = reads_.load(std::memory_order_relaxed);
    s.postings_decoded = postings_decoded_.load(std::memory_order_relaxed);
    s.bytes_read = bytes_read_.load(std::memory_order_relaxed);
    return s;
  }

  /// Zeroes the disk's own counters only. Disk stats are fully
  /// independent of the BufferStats of a buffer pool layered on top: a
  /// buffer flush never touches these, and this call never touches the
  /// pool's. (Invariant when both start from zero and readahead is off:
  /// stats().reads == pool misses.)
  void ResetStats() {
    reads_.store(0, std::memory_order_relaxed);
    postings_decoded_.store(0, std::memory_order_relaxed);
    bytes_read_.store(0, std::memory_order_relaxed);
  }

  /// Resolves metric handles in `registry` (disk.reads,
  /// disk.postings_decoded, disk.bytes_read, disk.postings_per_page) so
  /// every subsequent ReadPage also reports there. Resolution happens
  /// once, here; the read path only dereferences the cached handles.
  /// Pass nullptr to unbind. Observational only, hence const.
  void BindMetrics(obs::MetricsRegistry* registry) const;

  /// Attaches a fault injector consulted on every subsequent ReadPage
  /// (nullptr to detach). The injector outlives the attachment; the
  /// disk never owns it. Const for the same reason as BindMetrics: the
  /// index hands out `const SimulatedDisk&` and fault injection, like
  /// metrics, does not alter the stored pages.
  void SetFaultInjector(const fault::FaultInjector* injector) const {
    injector_ = injector;
  }
  const fault::FaultInjector* fault_injector() const { return injector_; }

  /// Attaches a span recorder so every subsequent ReadPage times its
  /// CRC verification (kCrcVerify) and posting-block decode
  /// (kBlockDecode) on the reading thread; nullptr to detach (the
  /// default — reads then pay one null test). Const for the same
  /// reason as SetFaultInjector: tracing observes, it does not alter
  /// the stored pages. Attach/detach only while reads are quiesced.
  void SetSpanRecorder(obs::SpanRecorder* recorder) const {
    span_recorder_ = recorder;
  }
  obs::SpanRecorder* span_recorder() const { return span_recorder_; }

 private:
  struct EncodedPage {
    std::vector<uint8_t> image;
    double max_weight = 0.0;
    /// CRC32C of `image`, fixed at append time and verified by every
    /// read (silent-corruption detection).
    uint32_t crc = 0;
  };

  /// Pre-resolved registry handles (all null when unbound).
  struct MetricHandles {
    obs::Counter* reads = nullptr;
    obs::Counter* postings_decoded = nullptr;
    obs::Counter* bytes_read = nullptr;
    obs::Histogram* postings_per_page = nullptr;
  };

  std::vector<std::vector<EncodedPage>> files_;
  uint64_t total_pages_ = 0;
  uint64_t total_postings_ = 0;
  uint64_t compressed_bytes_ = 0;
  // ReadPage is const and called concurrently by the serving subsystem's
  // worker threads; counters are relaxed atomics (counts only, no
  // ordering is derived from them).
  mutable std::atomic<uint64_t> reads_{0};
  mutable std::atomic<uint64_t> postings_decoded_{0};
  mutable std::atomic<uint64_t> bytes_read_{0};
  mutable MetricHandles metrics_;
  /// Borrowed, not owned; nullptr = fault-free operation.
  mutable const fault::FaultInjector* injector_ = nullptr;
  /// Borrowed, not owned; nullptr = no read-path span tracing.
  mutable obs::SpanRecorder* span_recorder_ = nullptr;
};

}  // namespace irbuf::storage

#endif  // IRBUF_STORAGE_SIMULATED_DISK_H_
