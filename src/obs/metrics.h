// The metrics registry: named counters and fixed-bucket histograms that
// the storage/buffer/evaluator stack reports into and every bench and
// test reads out of.
//
// Counters are pulled. A component keeps each count once, as a relaxed
// atomic behind its own snapshot, and its BindMetrics registers one
// collector that emits (name, value) pairs from it; a counted event
// costs the component one atomic add and nothing else. The registry
// calls collectors only to export, bind, unbind or Reset, and exports
//
//   retained + sum over live sources of (current - baseline at bind)
//
// so a counter covers the events while bound, sources under one name
// add up (every shard pool's resilient reader reports into fault.*),
// and a source that unbinds or dies folds its last delta into
// `retained`. Histograms are pushed through pointer-stable handles
// resolved at bind time; Observe is lock-free.
//
// Thread safety: registration, export and unbinding are serialized by
// the registry's mutex, and collectors run under it. A collector only
// loads relaxed atomics (no lock, no call back into the registry), so
// that mutex stays a leaf. Exports are exact whenever the writers are
// quiesced (the benches' reporting pattern).

#ifndef IRBUF_OBS_METRICS_H_
#define IRBUF_OBS_METRICS_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace irbuf::obs {

/// A fixed-bucket histogram: `bounds` are inclusive upper bounds of the
/// first N buckets; an implicit +inf bucket catches the rest. Bucket
/// layout is frozen at registration, so Observe is a short linear scan
/// (bucket counts are small by design) followed by relaxed atomic
/// increments — no locks, no allocation.
class Histogram {
 public:
  explicit Histogram(std::vector<double> bounds);

  void Observe(double value);

  uint64_t count() const { return count_.load(std::memory_order_relaxed); }
  double sum() const { return sum_.load(std::memory_order_relaxed); }
  double Mean() const {
    const uint64_t n = count();
    return n == 0 ? 0.0 : sum() / static_cast<double>(n);
  }
  /// Upper bounds, excluding the implicit +inf bucket.
  const std::vector<double>& bounds() const { return bounds_; }
  /// Snapshot of the per-bucket counts; size() == bounds().size() + 1
  /// (last is +inf).
  std::vector<uint64_t> bucket_counts() const;

  /// Approximate `p`-th percentile (p in [0, 100]) of the observed
  /// sample, reconstructed from the bucket counts: each bucket is
  /// represented by its midpoint (the +inf bucket by the last finite
  /// bound) and the weighted rank interpolation is delegated to
  /// metrics::PercentileWeighted from run_stats. The error is bounded by
  /// half a bucket width; an empty histogram yields 0.
  double Percentile(double p) const;

  void Reset();

 private:
  std::vector<double> bounds_;
  /// Atomic per-bucket counts (vector sized at construction, never
  /// resized, so element addresses are stable and lock-free to update).
  std::vector<std::atomic<uint64_t>> counts_;
  std::atomic<uint64_t> count_{0};
  std::atomic<double> sum_{0.0};
};

/// Receives a source's counters, one call each, in a fixed order.
using Emit = std::function<void(std::string_view name, uint64_t value)>;
/// Emits every counter of one component from its snapshot.
using Collector = std::function<void(const Emit& emit)>;

namespace internal {
/// The registry's instruments and sources (metrics.cc), shared so that a
/// SourceBinding can tell whether its registry still exists.
struct RegistryState;
}  // namespace internal

/// A live registration of a counter collector (MetricsRegistry::
/// BindSource). Destroying, reassigning or Unbind()ing it folds the
/// source's final counts into the registry and detaches the collector.
/// It holds the registry weakly, so the registry and the component may
/// die in either order. Declare it after every member its collector
/// reads, so it unbinds before they are destroyed.
class SourceBinding {
 public:
  SourceBinding() = default;
  ~SourceBinding() { Unbind(); }
  SourceBinding(SourceBinding&& other) noexcept;
  SourceBinding& operator=(SourceBinding&& other) noexcept;
  SourceBinding(const SourceBinding&) = delete;
  SourceBinding& operator=(const SourceBinding&) = delete;

  /// Folds the final counts and detaches; a no-op when unbound or when
  /// the registry is gone.
  void Unbind();
  /// True while registered with a registry that still exists.
  bool bound() const { return id_ != 0 && !state_.expired(); }

 private:
  friend class MetricsRegistry;

  SourceBinding(std::weak_ptr<internal::RegistryState> state, uint64_t id)
      : state_(std::move(state)), id_(id) {}

  std::weak_ptr<internal::RegistryState> state_;
  uint64_t id_ = 0;
};

/// Owns every histogram and the counter bookkeeping; histogram handles
/// stay valid for the registry's lifetime.
class MetricsRegistry {
 public:
  MetricsRegistry();
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Binds `collect` as a live counter source. It is called once now:
  /// each name it emits is registered (in emission order) if new, and
  /// the values become the source's baseline. A name already taken by a
  /// histogram is ignored.
  [[nodiscard]] SourceBinding BindSource(Collector collect);

  /// Registers (or re-resolves) a histogram by name. Registering an
  /// existing name returns the already-registered handle, so several
  /// components may bind the same registry idempotently; `help` is kept
  /// from the first registration. `bounds` must be strictly increasing
  /// and is ignored when `name` exists. Null if `name` is a counter.
  Histogram* AddHistogram(std::string name, std::vector<double> bounds,
                          std::string help = "");

  /// A counter's exported value; nullopt if no source ever emitted
  /// `name` as a counter.
  std::optional<uint64_t> CounterValue(std::string_view name) const;
  /// Lookup without registration; nullptr if absent or a counter.
  const Histogram* FindHistogram(std::string_view name) const;

  /// Zeroes every instrument: retained counts drop to 0, live sources
  /// take their current values as the new baseline, histograms clear.
  void Reset();

  /// Registered instruments (counters and histograms).
  size_t size() const;

  /// One JSON object: {"counters":{...},"histograms":{...}}.
  std::string ToJson() const;

  /// Human-readable snapshot, one instrument per line, registration
  /// order.
  std::string DumpText() const;

 private:
  std::shared_ptr<internal::RegistryState> state_;
};

}  // namespace irbuf::obs

#endif  // IRBUF_OBS_METRICS_H_
