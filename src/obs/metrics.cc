#include "obs/metrics.h"

#include <utility>

#include "metrics/run_stats.h"
#include "obs/json.h"
#include "util/dcheck.h"
#include "util/mutex.h"
#include "util/str.h"
#include "util/thread_annotations.h"

namespace irbuf::obs {

Histogram::Histogram(std::vector<double> bounds)
    : bounds_(std::move(bounds)), counts_(bounds_.size() + 1) {}

void Histogram::Observe(double value) {
  size_t i = 0;
  while (i < bounds_.size() && value > bounds_[i]) ++i;
  counts_[i].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  sum_.fetch_add(value, std::memory_order_relaxed);
}

std::vector<uint64_t> Histogram::bucket_counts() const {
  std::vector<uint64_t> snapshot(counts_.size());
  for (size_t i = 0; i < counts_.size(); ++i) {
    snapshot[i] = counts_[i].load(std::memory_order_relaxed);
  }
  return snapshot;
}

double Histogram::Percentile(double p) const {
  if (bounds_.empty()) return 0.0;
  // Bucket representatives: the first bucket's lower edge is taken as 0
  // (every recorded quantity in this codebase is non-negative), interior
  // buckets use their midpoint, and the open +inf bucket is pinned to
  // the last finite bound.
  std::vector<double> representatives(counts_.size());
  representatives[0] = bounds_[0] / 2.0;
  for (size_t i = 1; i < bounds_.size(); ++i) {
    representatives[i] = (bounds_[i - 1] + bounds_[i]) / 2.0;
  }
  representatives[bounds_.size()] = bounds_.back();
  return metrics::PercentileWeighted(representatives, bucket_counts(), p);
}

void Histogram::Reset() {
  for (auto& c : counts_) c.store(0, std::memory_order_relaxed);
  count_.store(0, std::memory_order_relaxed);
  sum_.store(0.0, std::memory_order_relaxed);
}

namespace internal {

struct RegistryState {
  struct Entry {
    std::string name;
    std::string help;
    /// Null for a counter.
    std::unique_ptr<Histogram> histogram;
    /// A counter's count from the sources unbound since the last Reset.
    uint64_t retained = 0;
  };
  /// A live source. slots[i] belongs to the i-th counter it emits: the
  /// entry it feeds (kNone when a histogram owns the name) and its value
  /// at the bind or the last Reset.
  struct Source {
    uint64_t id;
    Collector collect;
    std::vector<std::pair<size_t, uint64_t>> slots;
  };
  static constexpr size_t kNone = ~size_t{0};

  size_t Find(std::string_view name) const IRBUF_REQUIRES(mu) {
    for (size_t i = 0; i < entries.size(); ++i) {
      if (entries[i]->name == name) return i;
    }
    return kNone;
  }

  /// `source`'s current values, one per slot.
  static std::vector<uint64_t> Collect(const Source& source) {
    std::vector<uint64_t> values;
    source.collect(
        [&](std::string_view, uint64_t value) { values.push_back(value); });
    IRBUF_DCHECK(values.size() == source.slots.size(),
                 "a counter source changed its counters after binding");
    values.resize(source.slots.size());
    return values;
  }

  /// Adds what `source` counted since its baselines to `totals`
  /// (indexed by entry).
  static void AddDeltas(const Source& source, std::vector<uint64_t>& totals) {
    const std::vector<uint64_t> values = Collect(source);
    for (size_t i = 0; i < values.size(); ++i) {
      const auto [entry, baseline] = source.slots[i];
      if (entry != kNone) totals[entry] += values[i] - baseline;
    }
  }

  /// Every counter's exported value, indexed by entry.
  std::vector<uint64_t> CounterTotals() const IRBUF_REQUIRES(mu) {
    std::vector<uint64_t> totals;
    for (const auto& e : entries) totals.push_back(e->retained);
    for (const Source& source : sources) AddDeltas(source, totals);
    return totals;
  }

  /// Folds source `id`'s last deltas into `retained` and drops it.
  void Unbind(uint64_t id) IRBUF_EXCLUDES(mu) {
    MutexLock lock(mu);
    for (auto it = sources.begin(); it != sources.end(); ++it) {
      if (it->id != id) continue;
      std::vector<uint64_t> deltas(entries.size());
      AddDeltas(*it, deltas);
      for (size_t i = 0; i < deltas.size(); ++i) {
        entries[i]->retained += deltas[i];
      }
      sources.erase(it);
      return;
    }
  }

  /// Guards everything below. Collectors run under it, so none runs
  /// after its source's Unbind returns.
  mutable Mutex mu;
  /// Instruments in registration order; never removed, so indices and
  /// histogram handles stay valid.
  std::vector<std::unique_ptr<Entry>> entries IRBUF_GUARDED_BY(mu);
  std::vector<Source> sources IRBUF_GUARDED_BY(mu);
  uint64_t next_source_id IRBUF_GUARDED_BY(mu) = 1;
};

}  // namespace internal

using internal::RegistryState;

SourceBinding::SourceBinding(SourceBinding&& other) noexcept
    : state_(std::move(other.state_)), id_(std::exchange(other.id_, 0)) {}

SourceBinding& SourceBinding::operator=(SourceBinding&& other) noexcept {
  if (this != &other) {
    Unbind();
    state_ = std::move(other.state_);
    id_ = std::exchange(other.id_, 0);
  }
  return *this;
}

void SourceBinding::Unbind() {
  if (std::shared_ptr<RegistryState> state = state_.lock()) {
    state->Unbind(id_);
  }
  state_.reset();
  id_ = 0;
}

MetricsRegistry::MetricsRegistry()
    : state_(std::make_shared<RegistryState>()) {}

SourceBinding MetricsRegistry::BindSource(Collector collect) {
  RegistryState& st = *state_;
  uint64_t id = 0;
  {
    MutexLock lock(st.mu);
    std::vector<std::pair<std::string, uint64_t>> emitted;
    collect([&](std::string_view name, uint64_t value) {
      emitted.emplace_back(name, value);
    });
    id = st.next_source_id++;
    RegistryState::Source source{id, std::move(collect), {}};
    for (auto& [name, value] : emitted) {
      size_t entry = st.Find(name);
      if (entry == RegistryState::kNone) {
        entry = st.entries.size();
        st.entries.push_back(std::make_unique<RegistryState::Entry>());
        st.entries.back()->name = std::move(name);
      } else if (st.entries[entry]->histogram != nullptr) {
        entry = RegistryState::kNone;
      }
      source.slots.emplace_back(entry, value);
    }
    st.sources.push_back(std::move(source));
  }
  // Built outside the lock: a binding unbinds (locking) when destroyed.
  return SourceBinding(state_, id);
}

Histogram* MetricsRegistry::AddHistogram(std::string name,
                                         std::vector<double> bounds,
                                         std::string help) {
  RegistryState& st = *state_;
  MutexLock lock(st.mu);
  const size_t i = st.Find(name);
  if (i != RegistryState::kNone) return st.entries[i]->histogram.get();
  auto entry = std::make_unique<RegistryState::Entry>();
  entry->name = std::move(name);
  entry->help = std::move(help);
  entry->histogram = std::make_unique<Histogram>(std::move(bounds));
  Histogram* handle = entry->histogram.get();
  st.entries.push_back(std::move(entry));
  return handle;
}

std::optional<uint64_t> MetricsRegistry::CounterValue(
    std::string_view name) const {
  RegistryState& st = *state_;
  MutexLock lock(st.mu);
  const size_t i = st.Find(name);
  if (i == RegistryState::kNone || st.entries[i]->histogram != nullptr) {
    return std::nullopt;
  }
  return st.CounterTotals()[i];
}

const Histogram* MetricsRegistry::FindHistogram(std::string_view name) const {
  RegistryState& st = *state_;
  MutexLock lock(st.mu);
  const size_t i = st.Find(name);
  return i == RegistryState::kNone ? nullptr : st.entries[i]->histogram.get();
}

void MetricsRegistry::Reset() {
  RegistryState& st = *state_;
  MutexLock lock(st.mu);
  for (auto& e : st.entries) {
    e->retained = 0;
    if (Histogram* h = e->histogram.get()) h->Reset();
  }
  for (RegistryState::Source& source : st.sources) {
    const std::vector<uint64_t> values = RegistryState::Collect(source);
    for (size_t i = 0; i < values.size(); ++i) {
      source.slots[i].second = values[i];
    }
  }
}

size_t MetricsRegistry::size() const {
  const RegistryState& st = *state_;
  MutexLock lock(st.mu);
  return st.entries.size();
}

std::string MetricsRegistry::ToJson() const {
  const RegistryState& st = *state_;
  MutexLock lock(st.mu);
  const std::vector<uint64_t> totals = st.CounterTotals();
  JsonWriter w;
  w.BeginObject();
  w.Key("counters").BeginObject();
  for (size_t i = 0; i < st.entries.size(); ++i) {
    if (st.entries[i]->histogram == nullptr) {
      w.Key(st.entries[i]->name).UInt(totals[i]);
    }
  }
  w.EndObject();
  w.Key("histograms").BeginObject();
  for (const auto& e : st.entries) {
    if (e->histogram == nullptr) continue;
    const Histogram& h = *e->histogram;
    w.Key(e->name).BeginObject();
    w.Key("count").UInt(h.count());
    w.Key("sum").Num(h.sum());
    w.Key("p50").Num(h.Percentile(50.0));
    w.Key("p90").Num(h.Percentile(90.0));
    w.Key("p99").Num(h.Percentile(99.0));
    w.Key("bounds").BeginArray();
    for (double b : h.bounds()) w.Num(b);
    w.EndArray();
    w.Key("buckets").BeginArray();
    for (uint64_t c : h.bucket_counts()) w.UInt(c);
    w.EndArray();
    w.EndObject();
  }
  w.EndObject();
  w.EndObject();
  return std::move(w).Take();
}

std::string MetricsRegistry::DumpText() const {
  const RegistryState& st = *state_;
  MutexLock lock(st.mu);
  const std::vector<uint64_t> totals = st.CounterTotals();
  std::string out;
  for (size_t entry = 0; entry < st.entries.size(); ++entry) {
    const RegistryState::Entry& e = *st.entries[entry];
    if (e.histogram == nullptr) {
      out += StrFormat("%-40s %llu\n", e.name.c_str(),
                       static_cast<unsigned long long>(totals[entry]));
      continue;
    }
    const Histogram& h = *e.histogram;
    const std::vector<uint64_t> buckets = h.bucket_counts();
    out += StrFormat(
        "%-40s count=%llu mean=%.3f p50=%.3f p90=%.3f p99=%.3f [",
        e.name.c_str(), static_cast<unsigned long long>(h.count()), h.Mean(),
        h.Percentile(50.0), h.Percentile(90.0), h.Percentile(99.0));
    for (size_t i = 0; i < buckets.size(); ++i) {
      if (i > 0) out += ' ';
      if (i < h.bounds().size()) {
        out += StrFormat("<=%.6g:%llu", h.bounds()[i],
                         static_cast<unsigned long long>(buckets[i]));
      } else {
        out += StrFormat("+inf:%llu",
                         static_cast<unsigned long long>(buckets[i]));
      }
    }
    out += "]\n";
  }
  return out;
}

}  // namespace irbuf::obs
