#include "harness.h"

#include <sys/resource.h>

#include <algorithm>
#include <cstdarg>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <unordered_set>

#include "ir/ir_system.h"
#include "metrics/run_stats.h"
#include "obs/json.h"
#include "storage/codec.h"
#include "util/monotonic_clock.h"
#include "util/rng.h"
#include "util/str.h"
#include "workload/contribution.h"

namespace irbench {

double NowS() { return static_cast<double>(MonotonicNowNs()) / 1e9; }

double Median(std::vector<double> values) {
  return metrics::Percentile(std::move(values), 50.0);
}

double Pct(std::vector<double> values, double p) {
  return metrics::Percentile(std::move(values), p);
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux.
}

void Progress(const char* format, ...) {
  static const double start = NowS();
  std::fprintf(stderr, "[%7.2f s] ", NowS() - start);
  va_list args;
  va_start(args, format);
  std::vfprintf(stderr, format, args);
  va_end(args);
  std::fputc('\n', stderr);
}

// --- Report ----------------------------------------------------------

namespace {

std::string FullPrecision(double value) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

}  // namespace

void Report::Check(bool ok, const std::string& what) {
  if (!ok) errors_.push_back(what);
}

void Report::Detail(const std::string& key, const std::string& json_value) {
  detail_.emplace_back(key, json_value);
}

std::string Report::Json(const Values& values) {
  obs::JsonWriter w;
  for (const auto& [name, value] : values) {
    Check(std::isfinite(value), "metric " + name + " is not finite");
  }
  w.BeginObject()
      .Key("correct").Bool(correct())
      .Key("attempted").UInt(attempted)
      .Key("failed").UInt(failed)
      .Key("values").BeginObject();
  for (const auto& [name, value] : values) {
    w.Key(name).Raw(FullPrecision(std::isfinite(value) ? value : 0.0));
  }
  w.EndObject().Key("errors").BeginArray();
  for (const std::string& e : errors_) w.Str(e);
  w.EndArray().Key("detail").BeginObject();
  for (const auto& [key, value] : detail_) w.Key(key).Raw(value);
  w.EndObject().EndObject();
  return std::move(w).Take();
}

// --- Traffic and reference -------------------------------------------

Result<Traffic> BuildTraffic(const corpus::SyntheticCorpus& corpus,
                             uint64_t seed) {
  Traffic traffic;
  const index::InvertedIndex& index = corpus.index();
  for (const corpus::Topic& topic : corpus.topics()) {
    auto ranking = workload::RankTermsByContribution(topic.query, index);
    if (!ranking.ok()) return ranking.status();
    for (workload::RefinementKind kind :
         {workload::RefinementKind::kAddOnly,
          workload::RefinementKind::kAddDrop}) {
      traffic.sessions.push_back(workload::BuildRefinementSequenceFromRanking(
          topic.title, ranking.value(), kind));
    }
  }
  traffic.order.resize(traffic.sessions.size());
  for (uint32_t i = 0; i < traffic.order.size(); ++i) traffic.order[i] = i;
  Pcg32 rng(seed, /*stream=*/0x1b5);
  for (size_t i = traffic.order.size(); i > 1; --i) {
    std::swap(traffic.order[i - 1],
              traffic.order[rng.NextBounded(static_cast<uint32_t>(i))]);
  }
  return traffic;
}

Result<Reference> ComputeReference(const index::InvertedIndex& index,
                                   const Traffic& traffic) {
  Reference ref;
  for (const Session& session : traffic.sessions) {
    std::unordered_set<TermId> terms;
    for (const workload::RefinementStep& step : session.steps) {
      for (const core::QueryTerm& qt : step.query.terms()) {
        terms.insert(qt.term);
      }
    }
    uint64_t capacity = 1;
    for (TermId t : terms) capacity += index.disk().NumPages(t);
    ir::IrSystemOptions options;
    options.buffer_pages = capacity;  // Never evicts.
    ir::IrSystem system(&index, options);
    std::vector<std::vector<core::ScoredDoc>> answers;
    std::vector<std::vector<uint64_t>> pages;
    for (const workload::RefinementStep& step : session.steps) {
      auto result = system.Search(step.query);
      if (!result.ok()) return result.status();
      answers.push_back(result.value().top_docs);
      // Lists are read front to back, so a term's trace row names a
      // prefix of its pages.
      std::vector<uint64_t> touched;
      for (const core::TermTrace& t : result.value().trace) {
        for (uint32_t p = 0; p < t.pages_processed; ++p) {
          touched.push_back(PageId{t.term, p}.Pack());
        }
      }
      pages.push_back(std::move(touched));
    }
    ref.top.push_back(std::move(answers));
    ref.pages.push_back(std::move(pages));
  }
  return ref;
}

uint64_t Reference::DistinctPages(
    const std::vector<std::pair<uint32_t, uint32_t>>& queries) const {
  std::unordered_set<uint64_t> distinct;
  for (const auto& [session, step] : queries) {
    distinct.insert(pages[session][step].begin(), pages[session][step].end());
  }
  return distinct.size();
}

uint64_t Reference::SessionPages(uint32_t session) const {
  std::vector<std::pair<uint32_t, uint32_t>> steps;
  for (uint32_t step = 0; step < pages[session].size(); ++step) {
    steps.emplace_back(session, step);
  }
  return DistinctPages(steps);
}

bool AnswerCheck::Check(uint32_t session, size_t step,
                        const core::EvalResult& result) {
  const std::vector<core::ScoredDoc>& want = reference_->top[session][step];
  bool ok = !result.degraded;
  double recall = 1.0;
  if (exact_) {
    ok = ok && result.top_docs == want;
    recall = ok ? 1.0 : 0.0;
  } else if (!want.empty()) {
    std::unordered_set<DocId> got;
    for (const core::ScoredDoc& d : result.top_docs) got.insert(d.doc);
    size_t found = 0;
    for (const core::ScoredDoc& d : want) found += got.count(d.doc);
    recall = static_cast<double>(found) / static_cast<double>(want.size());
  }
  MutexLock lock(mu_);
  ++checked_;
  recall_sum_ += recall;
  return ok;
}

double AnswerCheck::MeanRecall() const {
  MutexLock lock(mu_);
  return checked_ == 0 ? 0.0 : recall_sum_ / static_cast<double>(checked_);
}

// --- Instrumentation ---------------------------------------------------

namespace {

Mutex logs_mu;
std::deque<FetchLog>& Logs() IRBUF_REQUIRES(logs_mu) {
  static std::deque<FetchLog>* logs = new std::deque<FetchLog>();
  return *logs;
}

}  // namespace

FetchLog& ThisThreadFetchLog() {
  thread_local FetchLog* log = nullptr;
  if (log == nullptr) {
    MutexLock lock(logs_mu);
    log = &Logs().emplace_back();
  }
  return *log;
}

FetchLog MergedFetchLogs() {
  FetchLog merged;
  MutexLock lock(logs_mu);
  for (const FetchLog& log : Logs()) {
    merged.hit_ns.insert(merged.hit_ns.end(), log.hit_ns.begin(),
                         log.hit_ns.end());
    merged.miss_ns.insert(merged.miss_ns.end(), log.miss_ns.begin(),
                          log.miss_ns.end());
    merged.missed.insert(merged.missed.end(), log.missed.begin(),
                         log.missed.end());
  }
  return merged;
}

void ResetFetchLogs() {
  MutexLock lock(logs_mu);
  for (FetchLog& log : Logs()) log = FetchLog{};
}

Result<buffer::PinnedPage> TimingPool::FetchPinned(PageId id) {
  const uint64_t start = MonotonicNowNs();
  Result<buffer::PinnedPage> page = inner_->FetchPinned(id);
  const uint64_t ns = MonotonicNowNs() - start;
  FetchLog& log = ThisThreadFetchLog();
  log.query_fetch_ns += ns;
  const uint32_t clipped =
      static_cast<uint32_t>(std::min<uint64_t>(ns, UINT32_MAX));
  if (page.ok() && page.value().was_miss()) {
    log.miss_ns.push_back(clipped);
    log.missed.push_back(id);
  } else {
    log.hit_ns.push_back(clipped);
  }
  return page;
}

void TimingPool::Unpin(uint32_t frame) {
  std::fprintf(stderr, "TimingPool::Unpin(%u): pins belong to the inner pool\n",
               frame);
  std::abort();
}

void EngineSamples::Put(const core::EvalResult& result, EngineSample sample) {
  if (result.top_docs.empty()) return;  // No buffer to identify it by.
  MutexLock lock(mu_);
  samples_[result.top_docs.data()] = sample;
}

bool EngineSamples::Take(const core::EvalResult& result,
                         EngineSample* sample) {
  MutexLock lock(mu_);
  auto it = samples_.find(result.top_docs.data());
  if (it == samples_.end() || result.top_docs.empty()) return false;
  *sample = it->second;
  samples_.erase(it);
  return true;
}

namespace {

serve::ConcurrentPoolOptions TracedPoolOptions(
    const serve::ServerOptions& options) {
  serve::ConcurrentPoolOptions pool;
  pool.capacity = options.buffer_pages;
  pool.policy = options.policy;
  pool.io_delay_us_per_miss = options.io_delay_us_per_miss;
  pool.prefetch_depth = options.prefetch_depth;
  pool.profile_contention = true;
  return pool;
}

}  // namespace

TracedEngine::TracedEngine(const index::InvertedIndex* index,
                           const serve::ServerOptions& options,
                           EngineSamples* samples)
    : pool_(&index->disk(), TracedPoolOptions(options)),
      timing_(&pool_),
      evaluator_(index, options.eval),
      samples_(samples) {}

Result<core::EvalResult> TracedEngine::Evaluate(
    const core::Query& query, const core::EvalControl* control,
    uint32_t query_id) {
  (void)query_id;
  FetchLog& log = ThisThreadFetchLog();
  log.query_fetch_ns = 0;
  const uint64_t start = MonotonicNowNs();
  Result<core::EvalResult> result =
      evaluator_.Evaluate(query, &timing_, control);
  const uint64_t eval_ns = MonotonicNowNs() - start;
  if (result.ok()) {
    samples_->Put(result.value(), {eval_ns, log.query_fetch_ns});
  }
  return result;
}

StorageCost MeasureStorage(const storage::SimulatedDisk& disk,
                           std::vector<PageId> pages) {
  std::sort(pages.begin(), pages.end(), [](const PageId& a, const PageId& b) {
    return a.Pack() < b.Pack();
  });
  pages.erase(std::unique(pages.begin(), pages.end()), pages.end());
  constexpr size_t kMaxPages = 4096;
  if (pages.size() > kMaxPages) {
    // Every k-th page: a deterministic, spread-out subset.
    const size_t stride = (pages.size() + kMaxPages - 1) / kMaxPages;
    std::vector<PageId> subset;
    for (size_t i = 0; i < pages.size(); i += stride) {
      subset.push_back(pages[i]);
    }
    pages.swap(subset);
  }
  StorageCost cost;
  if (pages.empty()) return cost;
  // Several passes so one cold pass does not dominate; the median pass
  // is reported.
  std::vector<double> read_ns;
  std::vector<double> decode_ns;
  uint64_t bytes = 0;
  storage::Page page;
  storage::PostingBlock block;
  for (int pass = 0; pass < 5; ++pass) {
    uint64_t start = MonotonicNowNs();
    for (const PageId& id : pages) {
      storage::SimulatedDisk::PageReadOp op;
      if (!disk.BeginRead(id, &op).ok() || !disk.FinishRead(id, op, &page).ok()) {
        return StorageCost{};
      }
    }
    read_ns.push_back(static_cast<double>(MonotonicNowNs() - start));
    bytes = 0;
    start = MonotonicNowNs();
    for (const PageId& id : pages) {
      auto image = disk.PageImage(id);
      if (!image.ok() ||
          !storage::DecodePostingsInto(*image.value(), &block).ok()) {
        return StorageCost{};
      }
      bytes += image.value()->size();
    }
    decode_ns.push_back(static_cast<double>(MonotonicNowNs() - start));
  }
  const double n = static_cast<double>(pages.size());
  cost.read_ns_per_page = Median(read_ns) / n;
  cost.decode_ns_per_page = Median(decode_ns) / n;
  cost.bytes_per_page = static_cast<double>(bytes) / n;
  return cost;
}

// --- Conservation checks -----------------------------------------------

buffer::BufferStats Delta(const buffer::BufferStats& after,
                          const buffer::BufferStats& before) {
  buffer::BufferStats d;
  d.fetches = after.fetches - before.fetches;
  d.hits = after.hits - before.hits;
  d.misses = after.misses - before.misses;
  d.evictions = after.evictions - before.evictions;
  return d;
}

serve::PoolPrefetchStats Delta(const serve::PoolPrefetchStats& after,
                               const serve::PoolPrefetchStats& before) {
  serve::PoolPrefetchStats d;
  d.issued = after.issued - before.issued;
  d.used = after.used - before.used;
  d.wasted = after.wasted - before.wasted;
  d.coalesced_misses = after.coalesced_misses - before.coalesced_misses;
  d.device_reads = after.device_reads - before.device_reads;
  return d;
}

void CheckPoolConservation(const std::string& pool,
                           const buffer::BufferStats& stats,
                           const serve::PoolPrefetchStats& prefetch,
                           Report* report) {
  report->Check(stats.fetches == stats.hits + stats.misses,
                StrFormat("%s: fetches %llu != hits %llu + misses %llu",
                          pool.c_str(),
                          static_cast<unsigned long long>(stats.fetches),
                          static_cast<unsigned long long>(stats.hits),
                          static_cast<unsigned long long>(stats.misses)));
  report->Check(
      stats.misses + prefetch.issued == prefetch.device_reads,
      StrFormat("%s: misses %llu + prefetch_issued %llu != device_reads %llu",
                pool.c_str(), static_cast<unsigned long long>(stats.misses),
                static_cast<unsigned long long>(prefetch.issued),
                static_cast<unsigned long long>(prefetch.device_reads)));
}

void CheckServerConservation(uint64_t client_attempts,
                             const serve::ServerStats& stats,
                             Report* report) {
  const uint64_t accounted =
      stats.completed + stats.rejected + stats.shed + stats.failed;
  report->Check(
      client_attempts == accounted &&
          stats.submitted == stats.completed + stats.shed + stats.failed,
      StrFormat("server: attempted %llu != completed %llu + rejected %llu + "
                "shed %llu + failed %llu (admitted %llu)",
                static_cast<unsigned long long>(client_attempts),
                static_cast<unsigned long long>(stats.completed),
                static_cast<unsigned long long>(stats.rejected),
                static_cast<unsigned long long>(stats.shed),
                static_cast<unsigned long long>(stats.failed),
                static_cast<unsigned long long>(stats.submitted)));
}

}  // namespace irbench
