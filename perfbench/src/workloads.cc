#include "workloads.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <future>
#include <memory>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include "corpus/corpus_io.h"
#include "ir/ir_system.h"
#include "obs/json.h"
#include "shard/index_sharder.h"
#include "shard/sharded_engine.h"
#include "util/monotonic_clock.h"
#include "util/rng.h"
#include "util/str.h"

namespace irbench {
namespace {

/// Set-ups per untraced run; the median is setup_s, and a slice is
/// measured after each.
constexpr int kSetups = 3;

// --- Measurement records ---------------------------------------------

/// One answered query as its client saw it.
struct QueryRecord {
  /// serial_refine: the client's step, around the search. cold_open:
  /// from the query's due time to the moment the client holds the answer.
  double latency_ms = 0.0;
  /// cold_open: how late the generator submitted it.
  double late_ms = 0.0;
  /// Server-side submit -> completion and the evaluation window
  /// (serial_refine has no server: both are the evaluation span).
  double server_ms = 0.0;
  double service_ms = 0.0;
  bool traced = false;
  EngineSample engine;
};

/// The answers of one measured stretch of traffic.
struct Answers {
  std::vector<QueryRecord> records;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t pages = 0;
  uint64_t postings = 0;
  uint64_t accumulators = 0;
  uint64_t terms_skipped = 0;

  void Add(const core::EvalResult& eval, const QueryRecord& record) {
    records.push_back(record);
    pages += eval.pages_processed;
    postings += eval.postings_processed;
    accumulators += eval.accumulators;
    terms_skipped += eval.terms_skipped;
  }

  void Merge(const Answers& other) {
    records.insert(records.end(), other.records.begin(), other.records.end());
    attempted += other.attempted;
    failed += other.failed;
    pages += other.pages;
    postings += other.postings;
    accumulators += other.accumulators;
    terms_skipped += other.terms_skipped;
  }

  double PerAnswer(uint64_t total) const {
    return records.empty() ? 0.0
                           : static_cast<double>(total) /
                                 static_cast<double>(records.size());
  }
};

std::vector<double> Latencies(const std::vector<QueryRecord>& records) {
  std::vector<double> out;
  out.reserve(records.size());
  for (const QueryRecord& r : records) out.push_back(r.latency_ms);
  return out;
}

uint64_t CountWithin(const std::vector<double>& latencies, double limit_ms) {
  return static_cast<uint64_t>(
      std::count_if(latencies.begin(), latencies.end(),
                    [&](double l) { return l <= limit_ms; }));
}

/// The latency distribution, for the result file.
std::string LatencyDetail(const std::vector<double>& latencies,
                          double limit_ms) {
  obs::JsonWriter w;
  w.BeginObject().Key("samples").UInt(latencies.size());
  for (double p : {50.0, 75.0, 90.0, 95.0, 99.0}) {
    w.Key(StrFormat("p%.0f_ms", p)).Num(Pct(latencies, p));
  }
  w.Key("goodput_limit_ms").Num(limit_ms)
      .Key("within_limit_frac")
      .Num(latencies.empty()
               ? 0.0
               : static_cast<double>(CountWithin(latencies, limit_ms)) /
                     static_cast<double>(latencies.size()))
      .EndObject();
  return std::move(w).Take();
}

/// Set-up phase times of one set-up.
struct Phases {
  double corpus_s = 0.0;
  double workload_s = 0.0;
  double warmup_s = 0.0;
  double Total() const { return corpus_s + workload_s + warmup_s; }
};

void ReportSetup(const std::vector<Phases>& setups, Values* values) {
  auto median_of = [&](double Phases::*field) {
    std::vector<double> v;
    for (const Phases& p : setups) v.push_back(p.*field);
    return Median(v);
  };
  std::vector<double> totals;
  for (const Phases& p : setups) totals.push_back(p.Total());
  (*values)["setup_s"] = Median(totals);
  (*values)["setup.corpus_load_s"] = median_of(&Phases::corpus_s);
  (*values)["setup.workload_build_s"] = median_of(&Phases::workload_s);
  (*values)["setup.warmup_s"] = median_of(&Phases::warmup_s);
}

/// Corpus and traffic of one set-up.
struct Inputs {
  std::unique_ptr<corpus::SyntheticCorpus> corpus;
  Traffic traffic;
};

Status LoadInputs(const Args& args, Inputs* in, Phases* phases) {
  double t = NowS();
  auto corpus = corpus::LoadCorpus(args.corpus_path);
  if (!corpus.ok()) return corpus.status();
  in->corpus = std::move(corpus).value();
  phases->corpus_s = NowS() - t;
  t = NowS();
  auto traffic = BuildTraffic(*in->corpus, args.seed);
  if (!traffic.ok()) return traffic.status();
  in->traffic = std::move(traffic).value();
  phases->workload_s = NowS() - t;
  return Status();
}

/// Layer self-times of the traced queries around the median latency,
/// summed against their mean client-side latency. The latency is taken
/// on the client's clock, outside every layer span, so the residual is
/// the time no layer covers: submission, hand-off, wake-up and the
/// harness itself.
void ReportLedger(const std::vector<QueryRecord>& records, Values* values) {
  std::vector<const QueryRecord*> sorted;
  for (const QueryRecord& r : records) {
    if (r.traced) sorted.push_back(&r);
  }
  if (sorted.empty()) return;
  std::sort(sorted.begin(), sorted.end(),
            [](const QueryRecord* a, const QueryRecord* b) {
              return a->latency_ms < b->latency_ms;
            });
  // The middle tenth by latency (at least one query).
  const size_t n = sorted.size();
  const size_t lo = n * 45 / 100;
  const size_t hi = std::max(lo + 1, n * 55 / 100);
  double latency = 0, late = 0, queue = 0, server = 0, core = 0, fetch = 0;
  for (size_t i = lo; i < hi; ++i) {
    const QueryRecord& r = *sorted[i];
    const double eval_ms = static_cast<double>(r.engine.eval_ns) / 1e6;
    const double fetch_ms = static_cast<double>(r.engine.fetch_ns) / 1e6;
    latency += r.latency_ms;
    late += r.late_ms;
    queue += r.server_ms - r.service_ms;
    server += r.service_ms - eval_ms;
    core += eval_ms - fetch_ms;
    fetch += fetch_ms;
  }
  const double k = static_cast<double>(hi - lo);
  const double residual = (latency - late - queue - server - core - fetch) / k;
  (*values)["ledger.latency_ms"] = latency / k;
  (*values)["ledger.gen_late_ms"] = late / k;
  (*values)["ledger.queue_ms"] = queue / k;
  (*values)["ledger.server_ms"] = server / k;
  (*values)["ledger.core_ms"] = core / k;
  (*values)["ledger.fetch_ms"] = fetch / k;
  (*values)["ledger.residual_ms"] = residual;
  (*values)["ledger.residual_frac"] =
      latency > 0 ? residual / (latency / k) : 0.0;
}

/// core.* from the answers.
void ReportCore(const Answers& answers, Values* values) {
  std::vector<double> self_us;
  for (const QueryRecord& r : answers.records) {
    if (!r.traced) continue;
    self_us.push_back(
        static_cast<double>(r.engine.eval_ns - r.engine.fetch_ns) / 1e3);
  }
  (*values)["core.eval_self_us_p50"] = Pct(self_us, 50);
  (*values)["core.eval_self_us_p99"] = Pct(self_us, 99);
  (*values)["core.postings_per_query"] = answers.PerAnswer(answers.postings);
  (*values)["core.accumulators_per_query"] =
      answers.PerAnswer(answers.accumulators);
  (*values)["core.pages_per_query"] = answers.PerAnswer(answers.pages);
  (*values)["core.terms_skipped_per_query"] =
      answers.PerAnswer(answers.terms_skipped);
}

void ReportStorage(const storage::SimulatedDisk& disk,
                   std::vector<PageId> pages, Values* values) {
  const StorageCost cost = MeasureStorage(disk, std::move(pages));
  (*values)["storage.read_ns_per_page"] = cost.read_ns_per_page;
  (*values)["storage.decode_ns_per_page"] = cost.decode_ns_per_page;
  (*values)["storage.bytes_per_page"] = cost.bytes_per_page;
}

std::vector<double> AsDoubles(const std::vector<uint32_t>& v, double scale) {
  std::vector<double> out;
  out.reserve(v.size());
  for (uint32_t x : v) out.push_back(static_cast<double>(x) * scale);
  return out;
}

// --- serial_refine -----------------------------------------------------

/// The paper's own experiment: one session at a time through
/// ir::IrSystem (BufferManager), BAF/RAP, every session from a cold pool.
///
/// The work is fixed: whole passes over the sessions. An untraced run
/// measures one slice of passes after each of its set-ups, so the
/// measurement is spread over the run and each timing is the median over
/// slices doing the same work. A slice holds as many passes as fit the
/// requested seconds at the pass's nominal length (at least one). The
/// count depends only on the arguments, never on how fast the passes
/// run, so every commit answers the same queries.
class SerialRefine {
 public:
  /// Answers within this limit count toward goodput: about the 95th
  /// percentile of a step's latency on a 4-core host, so the tail binds.
  static constexpr double kGoodputLimitMs = 1.5;
  /// Nominal length of one pass over the traffic.
  static constexpr double kSecondsPerPass = 3.0;

  SerialRefine(const Args& args, Report* report, Values* values)
      : args_(args), report_(report), values_(values) {}

  void Run() {
    std::vector<Phases> setups;
    const int n = args_.trace ? 1 : kSetups;
    Tally tally(&reference_);
    for (int i = 0; i < n; ++i) {
      system_.reset();
      in_ = Inputs{};
      Phases phases;
      if (!Check(LoadInputs(args_, &in_, &phases))) return;
      if (i == 0 && !Check(MakeReference())) return;
      const double t = NowS();
      Build();
      phases.warmup_s = NowS() - t;
      setups.push_back(phases);
      Progress("setup %d: corpus %.2f s, workload %.2f s, warm-up %.2f s", i,
               phases.corpus_s, phases.workload_s, phases.warmup_s);
      if (!args_.trace) {
        MeasureSlice(PassesPerSlice(args_.seconds, n), /*traced=*/false,
                     &tally);
      }
    }
    ReportSetup(setups, values_);
    if (!args_.trace) {
      Finish(tally, /*traced=*/false);
      return;
    }
    const size_t passes = PassesPerSlice(args_.seconds / 2, 1);
    Tally untraced(&reference_);
    MeasureSlice(passes, /*traced=*/false, &untraced);
    const double untraced_p50 = Finish(untraced, /*traced=*/false);
    Tally traced(&reference_);
    MeasureSlice(passes, /*traced=*/true, &traced);
    const double traced_p50 = Finish(traced, /*traced=*/true);
    (*values_)["trace.overhead_frac"] = traced_p50 / untraced_p50 - 1.0;
  }

 private:
  /// What the measured slices of one run add up to.
  struct Tally {
    explicit Tally(const Reference* reference)
        : check(reference, /*exact=*/false) {}

    AnswerCheck check;
    Answers answers;
    double wall_s = 0.0;
    /// Each slice's p50, p99, throughput and goodput; the reported value
    /// is the median over slices.
    std::vector<double> slice_p50, slice_p99, slice_qps, slice_goodput;
    buffer::BufferStats pool;
    uint64_t device_reads = 0;
  };

  static size_t PassesPerSlice(double seconds, int slices) {
    return std::max<size_t>(
        1, static_cast<size_t>(std::lround(
               seconds / (kSecondsPerPass * static_cast<double>(slices)))));
  }

  bool Check(const Status& status) {
    report_->Check(status.ok(), "setup: " + status.ToString());
    return status.ok();
  }

  Status MakeReference() {
    auto ref = ComputeReference(in_.corpus->index(), in_.traffic);
    if (!ref.ok()) return ref.status();
    reference_ = std::move(ref).value();
    // Half the median session's working set: most sessions do not fit,
    // so RAP has to choose victims.
    std::vector<double> pages;
    for (uint32_t s = 0; s < in_.traffic.sessions.size(); ++s) {
      pages.push_back(static_cast<double>(reference_.SessionPages(s)));
    }
    pool_pages_ = std::max<size_t>(16, static_cast<size_t>(Median(pages) / 2));
    Progress("reference: median session touches %.0f pages; pool %zu pages",
             Median(pages), pool_pages_);
    return Status();
  }

  void Build() {
    ir::IrSystemOptions options;
    options.buffer_pages = pool_pages_;
    options.policy = buffer::PolicyKind::kRap;
    options.eval.buffer_aware = true;
    options.eval.record_trace = false;
    system_ = std::make_unique<ir::IrSystem>(&in_.corpus->index(), options);
    // Warm-up: the first sessions of the order, then a cold pool again.
    AnswerCheck check(&reference_, /*exact=*/false);
    Answers ignored;
    for (size_t i = 0; i < 8 && i < in_.traffic.order.size(); ++i) {
      RunSession(in_.traffic.order[i], nullptr, &check, &ignored);
    }
  }

  /// Latency is the client's span around the step. A traced step runs
  /// IrSystem::Search's own body (the evaluator over the system's pool)
  /// with the pool behind the timing decorator, inside its own
  /// evaluation span.
  void RunSession(uint32_t s, TimingPool* timing, AnswerCheck* check,
                  Answers* out) {
    system_->FlushBuffers();
    const Session& session = in_.traffic.sessions[s];
    core::FilteringEvaluator evaluator(&in_.corpus->index(),
                                       system_->options().eval);
    for (size_t step = 0; step < session.steps.size(); ++step) {
      ++out->attempted;
      const core::Query& query = session.steps[step].query;
      const uint64_t step_start = MonotonicNowNs();
      FetchLog& log = ThisThreadFetchLog();
      log.query_fetch_ns = 0;
      uint64_t eval_ns = 0;
      Result<core::EvalResult> result =
          timing == nullptr ? system_->Search(query) : [&] {
            const uint64_t eval_start = MonotonicNowNs();
            Result<core::EvalResult> r = evaluator.Evaluate(query, timing);
            eval_ns = MonotonicNowNs() - eval_start;
            return r;
          }();
      const uint64_t step_ns = MonotonicNowNs() - step_start;
      if (!result.ok() || !check->Check(s, step, result.value())) {
        ++out->failed;
        continue;
      }
      QueryRecord record;
      record.latency_ms = static_cast<double>(step_ns) / 1e6;
      if (timing != nullptr) {
        record.traced = true;
        record.engine = {eval_ns, log.query_fetch_ns};
        record.server_ms = static_cast<double>(eval_ns) / 1e6;
        record.service_ms = record.server_ms;
      }
      out->Add(result.value(), record);
    }
  }

  /// `passes` passes over every session in the seeded order, each
  /// session from a cold pool; adds to `tally` and checks this slice's
  /// conservation.
  void MeasureSlice(size_t passes, bool traced, Tally* tally) {
    const storage::SimulatedDisk& disk = in_.corpus->index().disk();
    TimingPool timing(system_->mutable_buffers());
    ResetFetchLogs();
    const buffer::BufferStats before = system_->buffers().StatsSnapshot();
    const uint64_t reads_before = disk.stats().reads;
    Answers slice;
    const double start = NowS();
    for (size_t pass = 0; pass < passes; ++pass) {
      for (uint32_t s : in_.traffic.order) {
        RunSession(s, traced ? &timing : nullptr, &tally->check, &slice);
      }
    }
    const double wall = NowS() - start;
    const std::vector<double> l = Latencies(slice.records);
    tally->slice_p50.push_back(Pct(l, 50));
    tally->slice_p99.push_back(Pct(l, 99));
    tally->slice_qps.push_back(static_cast<double>(l.size()) / wall);
    tally->slice_goodput.push_back(
        static_cast<double>(CountWithin(l, kGoodputLimitMs)) / wall);
    tally->wall_s += wall;
    Progress("slice: %zu queries, %.1f q/s, p50 %.3f ms, p99 %.3f ms",
             l.size(), tally->slice_qps.back(), tally->slice_p50.back(),
             tally->slice_p99.back());
    tally->answers.Merge(slice);

    const buffer::BufferStats stats =
        Delta(system_->buffers().StatsSnapshot(), before);
    serve::PoolPrefetchStats prefetch;
    prefetch.device_reads = disk.stats().reads - reads_before;
    CheckPoolConservation("buffer", stats, prefetch, report_);
    tally->pool.fetches += stats.fetches;
    tally->pool.hits += stats.hits;
    tally->pool.misses += stats.misses;
    tally->pool.evictions += stats.evictions;
    tally->device_reads += prefetch.device_reads;
    if (traced) storage_pages_ = std::move(MergedFetchLogs().missed);
  }

  /// Reports a finished measurement; returns its p50 latency.
  double Finish(const Tally& tally, bool traced) {
    const Answers& answers = tally.answers;
    const buffer::BufferStats& stats = tally.pool;
    Progress("measured %llu queries in %.2f s",
             static_cast<unsigned long long>(answers.attempted), tally.wall_s);
    report_->Check(stats.evictions > 0, "serial_refine: pool never evicted");
    report_->attempted += answers.attempted;
    report_->failed += answers.failed;
    report_->Check(tally.check.MeanRecall() >= kRecallFloor,
                   StrFormat("recall@20 %.4f below floor %.2f",
                             tally.check.MeanRecall(), kRecallFloor));

    const double p50 = Median(tally.slice_p50);
    Values& v = *values_;
    if (!traced) {
      const std::vector<double> latencies = Latencies(answers.records);
      report_->Detail("latency", LatencyDetail(latencies, kGoodputLimitMs));
      v["p50_ms"] = p50;
      v["p99_ms"] = Median(tally.slice_p99);
      v["throughput_qps"] = Median(tally.slice_qps);
      v["goodput_qps"] = Median(tally.slice_goodput);
      v["pages_read_per_query"] = answers.PerAnswer(tally.device_reads);
      v["recall_at_20"] = tally.check.MeanRecall();
      v["peak_rss_mb"] = PeakRssMb();
      v["latency.samples"] = static_cast<double>(latencies.size());
      v["failed_frac"] = static_cast<double>(answers.failed) /
                         static_cast<double>(answers.attempted);
      return p50;
    }
    v["trace.p50_ms"] = p50;
    ReportCore(answers, values_);
    FetchLog log = MergedFetchLogs();
    std::vector<double> fetch_ns = AsDoubles(log.hit_ns, 1.0);
    const std::vector<double> miss_ns = AsDoubles(log.miss_ns, 1.0);
    fetch_ns.insert(fetch_ns.end(), miss_ns.begin(), miss_ns.end());
    v["buffer.hit_rate"] = stats.HitRate();
    v["buffer.evictions"] = static_cast<double>(stats.evictions);
    v["buffer.fetch_ns_p50"] = Pct(fetch_ns, 50);
    ReportLedger(answers.records, values_);
    ReportStorage(in_.corpus->index().disk(), std::move(storage_pages_),
                  values_);
    return p50;
  }

  const Args& args_;
  Report* report_;
  Values* values_;
  Inputs in_;
  Reference reference_;
  size_t pool_pages_ = 0;
  std::unique_ptr<ir::IrSystem> system_;
  /// Pages the traced slice missed: the storage.* sample.
  std::vector<PageId> storage_pages_;
};

// --- cold_open -----------------------------------------------------------

/// I/O-bound serving of independent users: DF/RAP through a QueryServer
/// with 8 workers, 2 ms per device read and readahead depth 4, over a
/// pool a quarter the size of the pages its stream touches. A generator
/// thread offers a fixed stream of queries on a seeded Poisson schedule
/// at three fixed rates (all fixed for every later commit):
///   - the middle rate, at about 60% of capacity on a 4-core host, after
///     every set-up; p50_ms, p99_ms and goodput_qps are reported there;
///   - the low rate and the overload rate, once, after the last set-up;
///     the overload rate measures capacity (throughput_qps), and every
///     rate decides open.max_rate_qps.
class ColdOpen {
 public:
  static constexpr size_t kWorkers = 8;
  /// Warm-up load: at most one client thread per core of a 4-core host.
  static constexpr size_t kWarmupClients = 4;
  static constexpr uint32_t kMissDelayUs = 2000;
  static constexpr size_t kReadahead = 4;
  /// Pool pages as a share of the distinct pages the stream touches.
  static constexpr double kPoolShare = 0.25;
  /// Queries in the open loop's stream.
  static constexpr size_t kStreamQueries = 1100;
  static constexpr double kLowRate = 15.0;
  static constexpr double kMiddleRate = 30.0;
  static constexpr double kOverloadRate = 60.0;
  /// Shares of the measured seconds: the middle rate's is split evenly
  /// over the slices.
  static constexpr double kMiddleShare = 0.85;
  static constexpr double kLowShare = 0.05;
  static constexpr double kOverloadShare = 0.1;
  /// Answers within this limit count toward goodput: about the 80th
  /// percentile at the middle rate on a 4-core host, so faster answers
  /// raise goodput and slower ones lower it.
  static constexpr double kGoodputLimitMs = 150.0;
  /// A rate is sustained when its p99 stays within this limit, with no
  /// failed answer and no growing backlog (open.max_rate_qps).
  static constexpr double kP99LimitMs = 1000.0;
  /// Stream queries the traced run's shard probe evaluates.
  static constexpr size_t kShardProbeQueries = 480;

  ColdOpen(const Args& args, Report* report, Values* values)
      : args_(args), report_(report), values_(values) {}

  void Run() {
    std::vector<Phases> setups;
    const int n = args_.trace ? 1 : kSetups;
    Tally tally(&reference_);
    for (int i = 0; i < n; ++i) {
      rig_.reset();
      in_ = Inputs{};
      Phases phases;
      if (!Check(LoadInputs(args_, &in_, &phases))) return;
      if (i == 0 && !Check(MakeReference())) return;
      const double t = NowS();
      rig_ = MakeRig(/*traced=*/false);
      WarmUp();
      phases.warmup_s = NowS() - t;
      setups.push_back(phases);
      Progress("setup %d: corpus %.2f s, workload %.2f s, warm-up %.2f s", i,
               phases.corpus_s, phases.workload_s, phases.warmup_s);
      if (!args_.trace) {
        Measure(args_.seconds, n, /*ladder=*/i + 1 == n, /*traced=*/false,
                &tally);
      }
    }
    ReportSetup(setups, values_);
    if (!args_.trace) {
      Finish(tally, /*traced=*/false);
      return;
    }
    // Both halves offer the same queries at the same times.
    Tally untraced(&reference_);
    cursor_ = 0;
    Measure(args_.seconds / 2, 1, /*ladder=*/true, /*traced=*/false,
            &untraced);
    const double untraced_p50 = Finish(untraced, /*traced=*/false);
    rig_.reset();
    rig_ = MakeRig(/*traced=*/true);
    WarmUp();
    Tally traced(&reference_);
    cursor_ = 0;
    Measure(args_.seconds / 2, 1, /*ladder=*/true, /*traced=*/true, &traced);
    const double traced_p50 = Finish(traced, /*traced=*/true);
    (*values_)["trace.overhead_frac"] = traced_p50 / untraced_p50 - 1.0;
    MeasureShardLayer();
  }

 private:
  /// The server and engine of one measurement.
  struct Rig {
    std::unique_ptr<TracedEngine> traced;
    EngineSamples samples;
    std::unique_ptr<serve::QueryServer> server;

    serve::ConcurrentBufferPool* pool() {
      return traced != nullptr ? traced->pool() : server->mutable_pool();
    }
  };

  /// Point-in-time counters of a rig.
  struct Counters {
    buffer::BufferStats pool;
    serve::PoolPrefetchStats prefetch;
    uint64_t disk_reads = 0;
    serve::ServerStats server;
  };

  /// One offered rate's answers.
  struct Level {
    Answers answers;
    std::vector<double> late_ms;
    /// Sum of the schedule's gaps: the seconds the rate was offered for.
    double offered_s = 0.0;
    /// First due time -> last answer.
    double span_s = 0.0;
    /// Answers per second over the middle 80% of answers.
    double completion_rate = 0.0;
    bool backlog_growing = false;
  };

  /// What the measured slices of one run add up to.
  struct Tally {
    explicit Tally(const Reference* reference)
        : check(reference, /*exact=*/true) {}

    AnswerCheck check;
    int slices = 0;
    /// Every answer at every rate.
    Answers answers;
    /// The middle rate's answers over all slices, and the seconds it was
    /// offered for.
    std::vector<QueryRecord> middle;
    double middle_offered_s = 0.0;
    bool middle_backlog_growing = false;
    uint64_t middle_failed = 0;
    /// Measured seconds over every rate (the contention shares' base).
    double wall_s = 0.0;
    double capacity_qps = 0.0;
    double max_rate = 0.0;
    std::vector<double> late_ms;
    buffer::BufferStats pool;
    serve::PoolPrefetchStats prefetch;
    serve::ServerStats server;
    uint64_t latch_ns = 0;
    uint64_t stripe_ns = 0;
  };

  bool Check(const Status& status) {
    report_->Check(status.ok(), "setup: " + status.ToString());
    return status.ok();
  }

  const index::InvertedIndex& index() const { return in_.corpus->index(); }

  Status MakeReference() {
    auto ref = ComputeReference(index(), in_.traffic);
    if (!ref.ok()) return ref.status();
    reference_ = std::move(ref).value();
    // Two disjoint, evenly spread samples of every (session, step) in
    // topic order, each in a seeded order: the open loop's stream of
    // independent users' queries, and the warm-up queries. Every seed
    // offers the same query mix; the seed orders it and times it.
    std::vector<std::pair<uint32_t, uint32_t>> all;
    for (uint32_t s = 0; s < in_.traffic.sessions.size(); ++s) {
      for (uint32_t step = 0; step < in_.traffic.sessions[s].steps.size();
           ++step) {
        all.emplace_back(s, step);
      }
    }
    const size_t stride = std::max<size_t>(2, all.size() / kStreamQueries);
    for (size_t i = 0;
         stream_.size() < kStreamQueries && i + stride / 2 < all.size();
         i += stride) {
      stream_.push_back(all[i]);
      warm_.push_back(all[i + stride / 2]);
    }
    Pcg32 rng(args_.seed, /*stream=*/0x5e55);
    for (auto* list : {&stream_, &warm_}) {
      for (size_t i = list->size(); i > 1; --i) {
        std::swap((*list)[i - 1],
                  (*list)[rng.NextBounded(static_cast<uint32_t>(i))]);
      }
    }
    // The pool is sized from the distinct pages the stream touches.
    const uint64_t distinct = reference_.DistinctPages(stream_);
    pool_pages_ = std::max<size_t>(
        64, static_cast<size_t>(kPoolShare * static_cast<double>(distinct)));
    Progress("reference: %zu stream queries touch %llu distinct pages; pool "
             "%zu pages",
             stream_.size(), static_cast<unsigned long long>(distinct),
             pool_pages_);
    return Status();
  }

  serve::ServerOptions Options() const {
    serve::ServerOptions options;
    options.num_threads = kWorkers;
    options.queue_depth = 1 << 20;  // Open loop: the backlog is measured.
    options.buffer_pages = pool_pages_;
    options.policy = buffer::PolicyKind::kRap;
    options.eval.buffer_aware = false;
    options.eval.record_trace = false;
    options.io_delay_us_per_miss = kMissDelayUs;
    options.prefetch_depth = kReadahead;
    return options;
  }

  std::unique_ptr<Rig> MakeRig(bool traced) {
    auto rig = std::make_unique<Rig>();
    serve::ServerOptions options = Options();
    if (traced) {
      rig->traced =
          std::make_unique<TracedEngine>(&index(), options, &rig->samples);
      options.engine = rig->traced.get();
      options.buffer_pages = 1;  // The built-in pool sits idle.
    }
    rig->server = std::make_unique<serve::QueryServer>(&index(), options);
    rig->server->Start();
    return rig;
  }

  Counters Snapshot() {
    Counters c;
    c.pool = rig_->pool()->StatsSnapshot();
    c.prefetch = rig_->pool()->PrefetchStatsSnapshot();
    c.disk_reads = index().disk().stats().reads;
    c.server = rig_->server->StatsSnapshot();
    return c;
  }

  /// Counters once every in-flight readahead read has landed: the last
  /// answer can return while I/O workers still finish plans, so
  /// snapshots are taken until two in a row agree.
  Counters QuiescentSnapshot() {
    Counters last = Snapshot();
    for (int i = 0; i < 1000; ++i) {
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
      Counters now = Snapshot();
      if (now.disk_reads == last.disk_reads &&
          now.pool.fetches == last.pool.fetches &&
          now.pool.misses == last.pool.misses &&
          now.prefetch.issued == last.prefetch.issued &&
          now.prefetch.device_reads == last.prefetch.device_reads) {
        return now;
      }
      last = std::move(now);
    }
    return last;
  }

  /// Fills the pool before measuring: batches of the warm-up queries,
  /// closed loop, until the pool has read at least its capacity (demand
  /// and readahead reads together).
  void WarmUp() {
    AnswerCheck check(&reference_, /*exact=*/true);
    constexpr size_t kBatch = 64;
    const double start = NowS();
    size_t cursor = 0;
    std::atomic<uint64_t> wrong{0};
    while (rig_->pool()->PrefetchStatsSnapshot().device_reads < pool_pages_ &&
           NowS() - start < 10.0) {
      std::vector<std::thread> clients;
      for (size_t c = 0; c < kWarmupClients; ++c) {
        clients.emplace_back([&, c] {
          Answers ignored;
          for (size_t i = c; i < kBatch; i += kWarmupClients) {
            const auto [s, step] = warm_[(cursor + i) % warm_.size()];
            Result<serve::QueryResponse> response = rig_->server->Execute(
                s, in_.traffic.sessions[s].steps[step].query);
            if (!response.ok() ||
                !check.Check(s, step, response.value().eval)) {
              ++wrong;
            }
          }
        });
      }
      for (std::thread& t : clients) t.join();
      cursor += kBatch;
    }
    report_->Check(wrong == 0, "warm-up: wrong or failed answers");
    ResetFetchLogs();
  }

  /// One offered rate: the next `count` queries of the stream (cycling)
  /// on a seeded Poisson schedule. This (the generator) thread submits
  /// each at its due time; a collector thread stamps each answer the
  /// moment its future is ready, so latency runs from the due time to
  /// the answer on the client's own clock.
  Level OpenLevel(double rate, size_t count, Pcg32* rng, AnswerCheck* check) {
    struct Pending {
      std::future<Result<serve::QueryResponse>> future;
      uint32_t session = 0;
      uint32_t step = 0;
      uint64_t due_ns = 0;
      uint64_t submit_ns = 0;
      uint64_t ready_ns = 0;
    };
    struct Handoff {
      Mutex mu;
      CondVar cv;
      size_t published IRBUF_GUARDED_BY(mu) = 0;
      bool closed IRBUF_GUARDED_BY(mu) = false;
    };
    // A later answer that finishes before an earlier one is stamped
    // within this many microseconds.
    constexpr uint64_t kPollUs = 250;

    Level level;
    std::vector<Pending> pending(count);
    Handoff handoff;
    std::thread collector([&] {
      std::vector<size_t> outstanding;
      size_t seen = 0;
      for (;;) {
        size_t published = 0;
        bool closed = false;
        {
          MutexLock lock(handoff.mu);
          while (outstanding.empty() && seen == handoff.published &&
                 !handoff.closed) {
            handoff.cv.Wait(handoff.mu);
          }
          published = handoff.published;
          closed = handoff.closed;
        }
        for (; seen < published; ++seen) outstanding.push_back(seen);
        std::erase_if(outstanding, [&](size_t i) {
          Pending& p = pending[i];
          if (p.future.valid() && p.future.wait_for(std::chrono::seconds(0)) !=
                                      std::future_status::ready) {
            return false;
          }
          p.ready_ns = MonotonicNowNs();
          return true;
        });
        if (outstanding.empty()) {
          if (closed && seen == published) return;
          continue;
        }
        pending[outstanding.front()].future.wait_for(
            std::chrono::microseconds(kPollUs));
      }
    });

    // Exponential gaps, stratified: one draw from each of `count`
    // equal-probability slices of the distribution, in seeded order. The
    // schedule is Poisson in distribution, but every seed offers the
    // rate for the same total time.
    std::vector<double> gaps(count);
    for (size_t i = 0; i < count; ++i) {
      const double u = (static_cast<double>(i) + rng->NextDouble()) /
                       static_cast<double>(count);
      gaps[i] = -std::log(1.0 - u) / rate;
    }
    for (size_t i = count; i > 1; --i) {
      std::swap(gaps[i - 1], gaps[rng->NextBounded(static_cast<uint32_t>(i))]);
    }
    std::vector<double> depth;
    const uint64_t start = MonotonicNowNs() + 1'000'000;
    double offset_s = 0.0;
    for (size_t i = 0; i < count; ++i) {
      offset_s += gaps[i];
      Pending& p = pending[i];
      p.due_ns = start + static_cast<uint64_t>(offset_s * 1e9);
      std::this_thread::sleep_until(std::chrono::steady_clock::time_point(
          std::chrono::duration_cast<std::chrono::steady_clock::duration>(
              std::chrono::nanoseconds(p.due_ns))));
      std::tie(p.session, p.step) = stream_[cursor_++ % stream_.size()];
      p.submit_ns = MonotonicNowNs();
      level.late_ms.push_back(
          static_cast<double>(p.submit_ns > p.due_ns ? p.submit_ns - p.due_ns
                                                     : 0) /
          1e6);
      auto future = rig_->server->Submit(
          p.session, in_.traffic.sessions[p.session].steps[p.step].query);
      // A refused submission leaves the future invalid: a failed query.
      if (future.ok()) p.future = std::move(future).value();
      depth.push_back(static_cast<double>(rig_->server->QueueDepth()));
      MutexLock lock(handoff.mu);
      handoff.published = i + 1;
      handoff.cv.NotifyOne();
    }
    level.offered_s = offset_s;
    {
      MutexLock lock(handoff.mu);
      handoff.closed = true;
      handoff.cv.NotifyOne();
    }
    collector.join();

    std::vector<uint64_t> done;
    for (Pending& p : pending) {
      ++level.answers.attempted;
      if (!p.future.valid()) {
        ++level.answers.failed;
        continue;
      }
      Result<serve::QueryResponse> response = p.future.get();
      if (!response.ok() ||
          !check->Check(p.session, p.step, response.value().eval)) {
        ++level.answers.failed;
        continue;
      }
      const serve::QueryResponse& r = response.value();
      QueryRecord record;
      record.latency_ms = static_cast<double>(p.ready_ns - p.due_ns) / 1e6;
      record.late_ms = static_cast<double>(p.submit_ns - p.due_ns) / 1e6;
      record.server_ms = static_cast<double>(r.latency.count()) / 1e3;
      record.service_ms = static_cast<double>(r.service_time.count()) / 1e3;
      record.traced = rig_->samples.Take(r.eval, &record.engine);
      level.answers.Add(r.eval, record);
      done.push_back(p.ready_ns);
    }
    std::sort(done.begin(), done.end());
    if (!done.empty()) {
      level.span_s = static_cast<double>(done.back() - start) / 1e9;
      const size_t lo = done.size() / 10;
      const size_t hi = done.size() - 1 - done.size() / 10;
      if (hi > lo) {
        level.completion_rate = static_cast<double>(hi - lo) /
                                (static_cast<double>(done[hi] - done[lo]) / 1e9);
      }
    }
    // A growing backlog: the queue in the last third of the arrivals is
    // well above the first third's.
    const size_t third = depth.size() / 3;
    if (third > 0) {
      double first = 0, last = 0;
      for (size_t i = 0; i < third; ++i) {
        first += depth[i];
        last += depth[depth.size() - 1 - i];
      }
      first /= static_cast<double>(third);
      last /= static_cast<double>(third);
      level.backlog_growing =
          last > 2.0 * first + static_cast<double>(kWorkers);
    }
    return level;
  }

  /// Whether a rate is sustained (see kP99LimitMs).
  static bool Meets(const std::vector<double>& latencies, uint64_t failed,
                    bool backlog_growing) {
    return failed == 0 && !backlog_growing &&
           Pct(latencies, 99) <= kP99LimitMs;
  }

  /// Offers one slice of `slices` over `seconds` on the current rig: the
  /// middle rate's share of it, then, when `ladder`, the low and the
  /// overload rates. Adds to `tally` and checks the rig's conservation
  /// laws.
  void Measure(double seconds, int slices, bool ladder, bool traced,
               Tally* tally) {
    serve::ConcurrentBufferPool* pool = rig_->pool();
    pool->latch_wait_stats()->Reset();
    pool->stripe_wait_stats()->Reset();
    ResetFetchLogs();
    const Counters before = QuiescentSnapshot();
    // Every slice, and both halves of a traced run, draw the same
    // arrival gaps.
    Pcg32 rng(args_.seed, /*stream=*/0x0be1);
    auto queries = [&](double rate, double share) {
      return std::max<size_t>(
          1, static_cast<size_t>(std::lround(rate * share * seconds)));
    };
    Answers answers;
    obs::JsonWriter levels;
    levels.BeginArray();
    auto offer = [&](double rate, size_t count) {
      Level level = OpenLevel(rate, count, &rng, &tally->check);
      const std::vector<double> latencies = Latencies(level.answers.records);
      levels.BeginObject()
          .Key("rate_qps").Num(rate)
          .Key("queries").UInt(level.answers.attempted)
          .Key("p50_ms").Num(Pct(latencies, 50))
          .Key("p99_ms").Num(Pct(latencies, 99))
          .Key("span_s").Num(level.span_s)
          .Key("backlog_growing").Bool(level.backlog_growing)
          .EndObject();
      Progress("%zu queries at %.0f q/s: p50 %.3f ms, p99 %.3f ms",
               latencies.size(), rate, Pct(latencies, 50),
               Pct(latencies, 99));
      tally->wall_s += level.span_s;
      tally->late_ms.insert(tally->late_ms.end(), level.late_ms.begin(),
                            level.late_ms.end());
      answers.Merge(level.answers);
      return level;
    };

    const Level middle = offer(
        kMiddleRate,
        queries(kMiddleRate, kMiddleShare / static_cast<double>(slices)));
    tally->middle.insert(tally->middle.end(), middle.answers.records.begin(),
                         middle.answers.records.end());
    tally->middle_offered_s += middle.offered_s;
    tally->middle_failed += middle.answers.failed;
    tally->middle_backlog_growing =
        tally->middle_backlog_growing || middle.backlog_growing;
    if (ladder) {
      const Level low = offer(kLowRate, queries(kLowRate, kLowShare));
      if (Meets(Latencies(low.answers.records), low.answers.failed,
                low.backlog_growing)) {
        tally->max_rate = std::max(tally->max_rate, kLowRate);
      }
      const Level overload =
          offer(kOverloadRate, queries(kOverloadRate, kOverloadShare));
      tally->capacity_qps = overload.completion_rate;
      if (Meets(Latencies(overload.answers.records), overload.answers.failed,
                overload.backlog_growing)) {
        tally->max_rate = std::max(tally->max_rate, kOverloadRate);
      }
      if (Meets(Latencies(tally->middle), tally->middle_failed,
                tally->middle_backlog_growing)) {
        tally->max_rate = std::max(tally->max_rate, kMiddleRate);
      }
    }
    levels.EndArray();
    report_->Detail(StrFormat("%s_levels_%d", traced ? "traced" : "untraced",
                              tally->slices++),
                    std::move(levels).Take());
    const Counters after = QuiescentSnapshot();

    // Conservation, in the pool and against the disk's own read counter.
    const buffer::BufferStats d = Delta(after.pool, before.pool);
    const serve::PoolPrefetchStats pd = Delta(after.prefetch, before.prefetch);
    CheckPoolConservation("pool", d, pd, report_);
    const uint64_t disk_reads = after.disk_reads - before.disk_reads;
    report_->Check(disk_reads == pd.device_reads,
                   StrFormat("disk reads %llu != pool device reads %llu",
                             static_cast<unsigned long long>(disk_reads),
                             static_cast<unsigned long long>(pd.device_reads)));
    tally->pool.fetches += d.fetches;
    tally->pool.hits += d.hits;
    tally->pool.misses += d.misses;
    tally->pool.evictions += d.evictions;
    tally->prefetch.issued += pd.issued;
    tally->prefetch.used += pd.used;
    tally->prefetch.wasted += pd.wasted;
    tally->prefetch.coalesced_misses += pd.coalesced_misses;
    tally->prefetch.device_reads += pd.device_reads;
    serve::ServerStats server;
    server.submitted = after.server.submitted - before.server.submitted;
    server.rejected = after.server.rejected - before.server.rejected;
    server.completed = after.server.completed - before.server.completed;
    server.failed = after.server.failed - before.server.failed;
    server.shed = after.server.shed - before.server.shed;
    CheckServerConservation(answers.attempted, server, report_);
    tally->server.submitted += server.submitted;
    tally->server.rejected += server.rejected;
    tally->server.completed += server.completed;
    tally->server.failed += server.failed;
    tally->server.shed += server.shed;
    tally->latch_ns += pool->latch_wait_stats()->wait_ns_total();
    tally->stripe_ns += pool->stripe_wait_stats()->wait_ns_total();
    if (traced) storage_pages_ = std::move(MergedFetchLogs().missed);
    tally->answers.Merge(answers);
  }

  /// Reports a finished measurement; returns the p50 latency it reports.
  double Finish(const Tally& tally, bool traced) {
    const Answers& answers = tally.answers;
    const buffer::BufferStats& total = tally.pool;
    const serve::PoolPrefetchStats& prefetch = tally.prefetch;
    const serve::ServerStats& server = tally.server;
    Progress("measured %llu queries",
             static_cast<unsigned long long>(answers.attempted));
    report_->Check(total.evictions > 0, "cold_open: pool never evicted");
    report_->attempted += answers.attempted;
    report_->failed += answers.failed;

    // Latency and goodput over every slice's answers at the middle rate.
    const std::vector<double> latencies = Latencies(tally.middle);
    const double p50 = Pct(latencies, 50);
    Values& v = *values_;
    if (!traced) {
      report_->Detail("latency", LatencyDetail(latencies, kGoodputLimitMs));
      v["p50_ms"] = p50;
      v["p99_ms"] = Pct(latencies, 99);
      v["throughput_qps"] = tally.capacity_qps;
      v["goodput_qps"] =
          static_cast<double>(CountWithin(latencies, kGoodputLimitMs)) /
          tally.middle_offered_s;
      v["pages_read_per_query"] = answers.PerAnswer(prefetch.device_reads);
      v["recall_at_20"] = tally.check.MeanRecall();
      v["peak_rss_mb"] = PeakRssMb();
      v["latency.samples"] = static_cast<double>(latencies.size());
      v["open.max_rate_qps"] = tally.max_rate;
      v["failed_frac"] =
          static_cast<double>(answers.failed + server.rejected + server.shed) /
          static_cast<double>(std::max<uint64_t>(1, answers.attempted));
      return p50;
    }

    v["trace.p50_ms"] = p50;
    if (!tally.late_ms.empty()) v["gen.late_ms_p99"] = Pct(tally.late_ms, 99);
    ReportCore(answers, values_);
    const FetchLog log = MergedFetchLogs();
    v["pool.hit_rate"] = total.HitRate();
    v["pool.evictions"] = static_cast<double>(total.evictions);
    v["pool.fetch_hit_ns_p50"] = Pct(AsDoubles(log.hit_ns, 1.0), 50);
    v["pool.fetch_hit_ns_p99"] = Pct(AsDoubles(log.hit_ns, 1.0), 99);
    v["pool.fetch_miss_us_p50"] = Pct(AsDoubles(log.miss_ns, 1e-3), 50);
    v["pool.fetch_miss_us_p99"] = Pct(AsDoubles(log.miss_ns, 1e-3), 99);
    const double worker_ns =
        tally.wall_s * 1e9 * static_cast<double>(kWorkers);
    v["pool.latch_wait_share"] =
        static_cast<double>(tally.latch_ns) / worker_ns;
    v["pool.stripe_wait_share"] =
        static_cast<double>(tally.stripe_ns) / worker_ns;
    v["pool.coalesced_misses"] = static_cast<double>(prefetch.coalesced_misses);
    v["pool.prefetch_issued"] = static_cast<double>(prefetch.issued);
    v["pool.prefetch_wasted"] = static_cast<double>(prefetch.wasted);
    v["pool.prefetch_useful_frac"] =
        prefetch.issued == 0 ? 0.0
                             : static_cast<double>(prefetch.used) /
                                   static_cast<double>(prefetch.issued);

    std::vector<double> queue_ms;
    std::vector<double> overhead_us;
    for (const QueryRecord& r : tally.middle) {
      queue_ms.push_back(r.server_ms - r.service_ms);
      if (!r.traced) continue;
      overhead_us.push_back(r.service_ms * 1e3 -
                            static_cast<double>(r.engine.eval_ns) / 1e3);
    }
    v["serve.queue_wait_ms_p50"] = Pct(queue_ms, 50);
    v["serve.queue_wait_ms_p99"] = Pct(queue_ms, 99);
    v["serve.overhead_us_p50"] = Pct(overhead_us, 50);
    v["serve.rejected"] = static_cast<double>(server.rejected);
    v["serve.shed"] = static_cast<double>(server.shed);
    v["serve.failed"] = static_cast<double>(server.failed);
    v["trace.unmatched"] =
        static_cast<double>(tally.middle.size() - overhead_us.size());
    ReportStorage(index().disk(), std::move(storage_pages_), values_);
    ReportLedger(tally.middle, values_);
    return p50;
  }

  /// The shard layer, in isolation after the traced run: stream queries
  /// through a kProbeShards-shard ShardedEngine (doc-range shards, the
  /// workload's total pool pages and policy, DF, no miss delay) and
  /// through a one-pool evaluator with the same budget. Each query is
  /// evaluated once on each to warm them, then timed on each;
  /// shard.overhead_us is the per-query difference — the fan-out's cost
  /// over the same resident pages.
  void MeasureShardLayer() {
    constexpr size_t kProbeShards = 4;
    double t = NowS();
    shard::ShardOptions sharding;
    sharding.num_shards = kProbeShards;
    sharding.page_size = in_.corpus->profile().page_size;
    auto sharded_index = shard::ShardIndex(index(), sharding);
    if (!Check(sharded_index.status())) return;
    (*values_)["setup.shard_build_s"] = NowS() - t;

    shard::ShardedEngineOptions engine_options;
    engine_options.eval = Options().eval;
    engine_options.pool.total_pages = pool_pages_;
    engine_options.pool.policy = buffer::PolicyKind::kRap;
    engine_options.lanes_per_shard = 1;
    shard::ShardedEngine engine(&sharded_index.value(), engine_options);
    serve::ConcurrentPoolOptions pool_options;
    pool_options.capacity = pool_pages_;
    pool_options.policy = buffer::PolicyKind::kRap;
    serve::ConcurrentBufferPool pool(&index().disk(), pool_options);
    core::FilteringEvaluator evaluator(&index(), engine_options.eval);

    std::vector<double> eval_us;
    std::vector<double> diff_us;
    uint64_t pages = 0;
    const size_t probes = std::min(kShardProbeQueries, stream_.size());
    for (size_t i = 0; i < probes; ++i) {
      const auto [s, step] = stream_[i];
      const core::Query& query = in_.traffic.sessions[s].steps[step].query;
      uint64_t sharded_ns = 0;
      uint64_t single_ns = 0;
      bool ok = true;
      for (int pass = 0; pass < 2; ++pass) {
        t = NowS();
        auto sharded = engine.Evaluate(query, nullptr, 0);
        sharded_ns = static_cast<uint64_t>((NowS() - t) * 1e9);
        t = NowS();
        auto single = evaluator.Evaluate(query, &pool);
        single_ns = static_cast<uint64_t>((NowS() - t) * 1e9);
        ok = ok && sharded.ok() && single.ok();
        if (ok && pass == 1) {
          pages += sharded.value().pages_processed;
          // DF rankings do not depend on buffer state: sharded and
          // one-pool evaluation must rank identically.
          report_->Check(sharded.value().top_docs == single.value().top_docs,
                         "shard probe: sharded answer differs from one pool");
        }
      }
      report_->Check(ok, "shard probe: evaluation failed");
      eval_us.push_back(static_cast<double>(sharded_ns) / 1e3);
      diff_us.push_back((static_cast<double>(sharded_ns) -
                         static_cast<double>(single_ns)) /
                        1e3);
    }
    std::vector<double> hit_rates;
    for (size_t shard = 0; shard < engine.num_shards(); ++shard) {
      hit_rates.push_back(
          engine.mutable_pool()->shard(shard)->StatsSnapshot().HitRate());
    }
    Values& v = *values_;
    v["shard.eval_us_p50"] = Pct(eval_us, 50);
    v["shard.eval_us_p99"] = Pct(eval_us, 99);
    v["shard.overhead_us_p50"] = Pct(diff_us, 50);
    v["shard.hit_rate_min"] =
        *std::min_element(hit_rates.begin(), hit_rates.end());
    v["shard.hit_rate_max"] =
        *std::max_element(hit_rates.begin(), hit_rates.end());
    v["shard.pages_per_query"] =
        static_cast<double>(pages) / static_cast<double>(probes);
  }

  const Args& args_;
  Report* report_;
  Values* values_;
  Inputs in_;
  Reference reference_;
  size_t pool_pages_ = 0;
  /// The open loop's stream and the warm-up queries (see MakeReference).
  std::vector<std::pair<uint32_t, uint32_t>> stream_;
  std::vector<std::pair<uint32_t, uint32_t>> warm_;
  /// The next stream query to offer; every rate takes the queries after
  /// the previous one's.
  size_t cursor_ = 0;
  /// Pages the traced run missed: the storage.* sample.
  std::vector<PageId> storage_pages_;
  std::unique_ptr<Rig> rig_;
};

}  // namespace

bool RunWorkload(const Args& args, Report* report, Values* values) {
  if (args.workload == "serial_refine") {
    SerialRefine(args, report, values).Run();
    return true;
  }
  if (args.workload == "cold_open") {
    ColdOpen(args, report, values).Run();
    return true;
  }
  return false;
}

}  // namespace irbench
