// Shared machinery of the irbuf benchmark program: the seeded traffic,
// the answer reference and its checks, the report every run prints, and
// the benchmark-side instrumentation (a timing decorator around
// buffer::BufferPool, the server's evaluation path rebuilt around it as
// a serve::QueryEngine, and per-thread fetch logs). Nothing here reaches
// inside src/: every span and counter is taken around a public call.

#ifndef IRBENCH_HARNESS_H_
#define IRBENCH_HARNESS_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "buffer/buffer_pool.h"
#include "core/filtering_evaluator.h"
#include "core/query.h"
#include "corpus/synthetic_corpus.h"
#include "index/inverted_index.h"
#include "serve/concurrent_buffer_pool.h"
#include "serve/query_engine.h"
#include "serve/query_server.h"
#include "util/mutex.h"
#include "util/status.h"
#include "util/thread_annotations.h"
#include "workload/refinement.h"

namespace irbench {

using namespace irbuf;

/// Command line of one run.
struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Cached corpus file (generated on first use).
  std::string corpus_path;
};

/// Metric name -> value. Names and units are listed once, in
/// BENCHMARK.json; perfbench/run.py picks and labels the metrics a run
/// reports.
using Values = std::map<std::string, double>;

double NowS();
double Median(std::vector<double> values);
double Pct(std::vector<double> values, double p);
/// Peak resident set of this process, in MiB.
double PeakRssMb();
/// A timestamped progress line on stderr.
void Progress(const char* format, ...) __attribute__((format(printf, 1, 2)));

// --- Report ----------------------------------------------------------

/// Everything one run prints besides its metric values: the answer
/// counts, the failed checks, and free-form detail for the result file.
class Report {
 public:
  /// Records a check; a false `ok` fails the run with `what`.
  void Check(bool ok, const std::string& what);
  void Detail(const std::string& key, const std::string& json_value);

  uint64_t attempted = 0;
  uint64_t failed = 0;

  bool correct() const { return errors_.empty(); }
  /// {"correct":..,"attempted":..,"failed":..,"values":{..},
  ///  "errors":[..],"detail":{..}}; a value that is not finite fails
  /// the run and is written as 0.
  std::string Json(const Values& values);

 private:
  std::vector<std::string> errors_;
  std::vector<std::pair<std::string, std::string>> detail_;
};

// --- Traffic and reference -------------------------------------------

/// One user session: a topic's refinement sequence, replayed in order.
using Session = workload::RefinementSequence;

/// All 100 topics x {add-only, add-drop} sessions plus the seeded order
/// every workload replays them in. The mix is the same for every seed;
/// only the order (and, in the open loop, the arrival times) change.
struct Traffic {
  std::vector<Session> sessions;
  std::vector<uint32_t> order;
};

Result<Traffic> BuildTraffic(const corpus::SyntheticCorpus& corpus,
                             uint64_t seed);

/// DF answers of every (session, step), computed through ir::IrSystem on
/// a cold pool large enough never to evict, and the pages each step
/// touches — the basis every pool size is derived from.
struct Reference {
  std::vector<std::vector<std::vector<core::ScoredDoc>>> top;
  /// Packed PageIds each (session, step) touches.
  std::vector<std::vector<std::vector<uint64_t>>> pages;

  /// Distinct pages the given (session, step) queries touch together.
  uint64_t DistinctPages(
      const std::vector<std::pair<uint32_t, uint32_t>>& queries) const;
  /// Distinct pages every step of `session` touches together.
  uint64_t SessionPages(uint32_t session) const;
};

Result<Reference> ComputeReference(const index::InvertedIndex& index,
                                   const Traffic& traffic);

/// Checks answers against the reference: DF answers must match exactly
/// (documents and scores); BAF answers are scored by recall@20 and the
/// run fails if the mean falls below the floor.
class AnswerCheck {
 public:
  AnswerCheck(const Reference* reference, bool exact)
      : reference_(reference), exact_(exact) {}

  /// Thread-safe. Returns false when the answer is wrong.
  bool Check(uint32_t session, size_t step, const core::EvalResult& result);

  double MeanRecall() const;

 private:
  const Reference* reference_;
  bool exact_;
  mutable Mutex mu_;
  uint64_t checked_ IRBUF_GUARDED_BY(mu_) = 0;
  double recall_sum_ IRBUF_GUARDED_BY(mu_) = 0.0;
};

/// BAF answers must keep at least this mean recall@20 against DF.
inline constexpr double kRecallFloor = 0.90;

// --- Instrumentation ---------------------------------------------------

/// Per-thread record of the fetches made through TimingPool. Logs are
/// owned by a process-wide registry, so they outlive the threads that
/// wrote them; read and reset only while no fetch is running.
struct FetchLog {
  /// Fetch time accumulated since the last BeginQuery on this thread.
  uint64_t query_fetch_ns = 0;
  std::vector<uint32_t> hit_ns;
  std::vector<uint32_t> miss_ns;
  std::vector<PageId> missed;
};

FetchLog& ThisThreadFetchLog();
/// Merged view of every thread's log (quiescent only).
FetchLog MergedFetchLogs();
void ResetFetchLogs();

/// Forwards every BufferPool call to `inner`, timing FetchPinned on the
/// calling thread's FetchLog. Pins are handed out by `inner` and return
/// there, so the decorator never sees an Unpin.
class TimingPool final : public buffer::BufferPool {
 public:
  explicit TimingPool(buffer::BufferPool* inner) : inner_(inner) {}

  Result<buffer::PinnedPage> FetchPinned(PageId id) override;
  uint32_t ResidentPages(TermId term) const override {
    return inner_->ResidentPages(term);
  }
  void SetQueryContext(buffer::QueryContext context) override {
    inner_->SetQueryContext(std::move(context));
  }
  buffer::BufferStats StatsSnapshot() const override {
    return inner_->StatsSnapshot();
  }
  size_t PrefetchDepth() const override { return inner_->PrefetchDepth(); }
  void Prefetch(buffer::PageAccessPlan plan) override {
    inner_->Prefetch(plan);
  }

 private:
  void Unpin(uint32_t frame) override;

  buffer::BufferPool* inner_;
};

/// What the traced engines measured for one evaluation.
struct EngineSample {
  uint64_t eval_ns = 0;
  /// Fetch time inside the evaluation.
  uint64_t fetch_ns = 0;
};

/// Hands engine-side measurements to the client that receives the
/// answer. QueryServer moves the engine's EvalResult into the response
/// without copying, so the address of its top_docs buffer identifies
/// the evaluation on both sides.
class EngineSamples {
 public:
  void Put(const core::EvalResult& result, EngineSample sample);
  /// Removes and returns the sample of `result`; false when none.
  bool Take(const core::EvalResult& result, EngineSample* sample);

 private:
  Mutex mu_;
  std::unordered_map<const void*, EngineSample> samples_
      IRBUF_GUARDED_BY(mu_);
};

/// The server's built-in single-pool evaluation path rebuilt from public
/// parts (ConcurrentBufferPool, FilteringEvaluator) so the benchmark can
/// time it: the pool sits behind a TimingPool and profiles its latch and
/// stripe waits. Plugged into QueryServer as its engine for traced runs
/// only; takes the pool and evaluator settings from the same
/// ServerOptions the untraced server runs with (without shared context).
class TracedEngine final : public serve::QueryEngine {
 public:
  TracedEngine(const index::InvertedIndex* index,
               const serve::ServerOptions& options, EngineSamples* samples);

  Result<core::EvalResult> Evaluate(const core::Query& query,
                                    const core::EvalControl* control,
                                    uint32_t query_id) override;
  buffer::BufferStats PoolStats() const override {
    return pool_.StatsSnapshot();
  }

  serve::ConcurrentBufferPool* pool() { return &pool_; }

 private:
  serve::ConcurrentBufferPool pool_;
  TimingPool timing_;
  core::FilteringEvaluator evaluator_;
  EngineSamples* samples_;
};

/// Device read (BeginRead + FinishRead) and decode (DecodePostingsInto)
/// cost per page, timed in isolation over `pages` (deduplicated, capped).
struct StorageCost {
  double read_ns_per_page = 0.0;
  double decode_ns_per_page = 0.0;
  double bytes_per_page = 0.0;
};

StorageCost MeasureStorage(const storage::SimulatedDisk& disk,
                           std::vector<PageId> pages);

// --- Conservation checks -----------------------------------------------

buffer::BufferStats Delta(const buffer::BufferStats& after,
                          const buffer::BufferStats& before);
serve::PoolPrefetchStats Delta(const serve::PoolPrefetchStats& after,
                               const serve::PoolPrefetchStats& before);

/// fetches = hits + misses and misses + prefetch_issued = device_reads.
void CheckPoolConservation(const std::string& pool,
                           const buffer::BufferStats& stats,
                           const serve::PoolPrefetchStats& prefetch,
                           Report* report);

/// attempted = completed + rejected + shed + failed, from the client's
/// count and the server's snapshot.
void CheckServerConservation(uint64_t client_attempts,
                             const serve::ServerStats& stats,
                             Report* report);

}  // namespace irbench

#endif  // IRBENCH_HARNESS_H_
