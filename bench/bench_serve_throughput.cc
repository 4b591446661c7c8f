// Closed-loop load benchmark for the irbuf::serve subsystem: N users,
// each looping over their topic's refinement queries with one
// outstanding query at a time, against a QueryServer with a shared
// concurrent buffer pool. Sweeps worker-thread counts and the (DF/BAF x
// LRU/RAP) configuration matrix; reports throughput, latency
// percentiles and buffer hit rate per cell.
//
// The paper's simulator is single-threaded, so device time is simulated
// here too: every buffer miss sleeps `--delay-us` (default 2000 us,
// chosen so miss service time dominates the single-pool serial path
// and the sharded rows' cross-shard miss overlap is visible)
// OUTSIDE all pool locks. Worker threads therefore overlap their
// (simulated) I/O exactly as a multi-threaded server overlaps real
// device reads — which is where the thread-count scaling comes from
// even on a single-core host.
//
// Latency attribution: by default every cell runs with span tracing and
// lock-contention profiling on, so the telemetry carries a per-stage
// p50/p99 decomposition, per-mutex wait histograms and the policy-latch
// wait share — the evidence the sharding decision (ROADMAP) needs.
// --no-spans turns all instrumentation off for A/B runs against the
// uninstrumented baseline (tools/bench/ab_compare.py two-file mode).
//
// Usage: bench_serve_throughput [--users N] [--loops N] [--delay-us N]
//                               [--queue-depth N] [--no-spans]

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include <map>
#include <memory>

#include "bench_util.h"
#include "fault/backoff.h"
#include "metrics/run_stats.h"
#include "obs/json.h"
#include "obs/span.h"
#include "serve/query_server.h"
#include "shard/index_sharder.h"
#include "shard/sharded_engine.h"
#include "util/str.h"
#include "workload/refinement.h"

using namespace irbuf;

namespace {

struct Args {
  size_t users = 8;
  size_t loops = 3;  // Times each user replays their sequence.
  uint32_t delay_us = 2000;
  size_t queue_depth = 0;  // 0 = users (closed loop never rejects).
  bool instrument = true;  // Span tracing + contention profiling.
};

Args ParseArgs(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    auto value = [&]() -> long { return i + 1 < argc ? atol(argv[++i]) : 0; };
    if (std::strcmp(argv[i], "--users") == 0) {
      args.users = static_cast<size_t>(std::max(1L, value()));
    } else if (std::strcmp(argv[i], "--loops") == 0) {
      args.loops = static_cast<size_t>(std::max(1L, value()));
    } else if (std::strcmp(argv[i], "--delay-us") == 0) {
      args.delay_us = static_cast<uint32_t>(std::max(0L, value()));
    } else if (std::strcmp(argv[i], "--queue-depth") == 0) {
      args.queue_depth = static_cast<size_t>(std::max(0L, value()));
    } else if (std::strcmp(argv[i], "--no-spans") == 0) {
      args.instrument = false;
    } else {
      std::fprintf(stderr, "unknown flag %s\n", argv[i]);
      std::exit(2);
    }
  }
  if (args.queue_depth == 0) args.queue_depth = args.users;
  return args;
}

struct Config {
  const char* label;
  buffer::PolicyKind policy;
  bool baf;
  bool shared_context;
  /// Doc-range shards. 1 = the classic single shared pool; > 1 routes
  /// every query through shard::ShardedEngine (per-shard pools with the
  /// same TOTAL page budget, scatter-gather merge).
  size_t shards = 1;
};

struct CellResult {
  double wall_seconds = 0.0;
  double throughput_qps = 0.0;
  double p50_us = 0.0;
  double p90_us = 0.0;
  double p99_us = 0.0;
  double hit_rate = 0.0;
  uint64_t completed = 0;
  /// Admission rejections (ResourceExhausted) — nonzero only when the
  /// queue saturates, i.e. queue_depth < the closed-loop population.
  uint64_t rejected = 0;
  uint64_t disk_reads = 0;
  /// Async miss pipeline (schema 3): the readahead depth the cell ran
  /// at plus the pool's prefetch counters (summed over shard pools when
  /// sharded). device_reads = demand misses + readahead reads — the
  /// honest device total CheckDiskReadConservation pins at destruction.
  size_t prefetch_depth = 0;
  uint64_t prefetch_issued = 0;
  uint64_t prefetch_used = 0;
  uint64_t prefetch_wasted = 0;
  uint64_t prefetch_dropped = 0;
  uint64_t coalesced_misses = 0;
  uint64_t device_reads = 0;
  /// Per-shard hit rates (size == shards when sharded, else empty).
  std::vector<double> shard_hit_rates;
  // Attribution (empty / 0 when the cell ran --no-spans):
  std::string attribution_json;  // obs::AppendAttributionJson output
  std::string mutex_json;        // {"serve.queue":{...},"pool.latch":...}
  /// Policy-latch wait as a fraction of total worker wall time
  /// (wait_ns_total / (wall * workers)) — the sharding-decision number.
  double latch_wait_share = 0.0;
};

/// One cell of the sweep: `threads` workers serving the closed-loop
/// user population to completion. `sharded` must be non-null when
/// config.shards > 1 (prebuilt once per shard count, outside the cell).
CellResult RunCell(const index::InvertedIndex& index,
                   const shard::ShardedIndex* sharded,
                   const std::vector<workload::RefinementSequence>& seqs,
                   const Config& config, size_t threads, size_t pool_pages,
                   size_t prefetch_depth, const Args& args) {
  serve::ServerOptions options;
  options.num_threads = threads;
  options.queue_depth = args.queue_depth;
  options.buffer_pages = pool_pages;
  options.policy = config.policy;
  options.eval.buffer_aware = config.baf;
  options.eval.record_trace = false;
  options.shared_context = config.shared_context;
  options.io_delay_us_per_miss = args.delay_us;
  options.prefetch_depth = prefetch_depth;
  obs::SpanRecorder recorder;
  if (args.instrument) {
    options.span_recorder = &recorder;
    options.profile_contention = true;
  }
  // Route the cell's queries through the scatter-gather engine when
  // sharded; the server's built-in pool then sits idle.
  std::unique_ptr<shard::ShardedEngine> engine;
  if (config.shards > 1) {
    shard::ShardedEngineOptions engine_options;
    engine_options.eval = options.eval;
    engine_options.eval.span_recorder = options.span_recorder;
    engine_options.pool.total_pages = pool_pages;  // Same TOTAL budget.
    engine_options.pool.policy = config.policy;
    engine_options.pool.io_delay_us_per_miss = args.delay_us;
    engine_options.pool.prefetch_depth = prefetch_depth;
    engine_options.pool.profile_contention = args.instrument;
    engine_options.lanes_per_shard = threads;
    engine_options.shared_context = config.shared_context;
    engine = std::make_unique<shard::ShardedEngine>(sharded, engine_options);
    options.engine = engine.get();
  }
  serve::QueryServer server(&index, options);
  // Mirror contended waits into kLockWait spans so the attribution's
  // lock_wait row and the mutex-wait tables come from one measurement.
  obs::MutexWaitBinding queue_binding;
  obs::MutexWaitBinding latch_binding;
  obs::MutexWaitBinding stripe_binding;
  std::vector<std::unique_ptr<obs::MutexWaitBinding>> shard_bindings;
  if (args.instrument) {
    queue_binding.Bind(server.queue_wait_stats(), nullptr, &recorder);
    if (engine != nullptr) {
      for (size_t s = 0; s < engine->num_shards(); ++s) {
        auto latch = std::make_unique<obs::MutexWaitBinding>();
        latch->Bind(engine->mutable_pool()->shard(s)->latch_wait_stats(),
                    nullptr, &recorder);
        shard_bindings.push_back(std::move(latch));
        auto stripe = std::make_unique<obs::MutexWaitBinding>();
        stripe->Bind(engine->mutable_pool()->shard(s)->stripe_wait_stats(),
                     nullptr, &recorder);
        shard_bindings.push_back(std::move(stripe));
      }
    } else {
      latch_binding.Bind(server.mutable_pool()->latch_wait_stats(), nullptr,
                         &recorder);
      stripe_binding.Bind(server.mutable_pool()->stripe_wait_stats(), nullptr,
                          &recorder);
    }
  }
  server.Start();

  std::vector<std::vector<double>> latencies(args.users);
  const auto start = std::chrono::steady_clock::now();
  std::vector<std::thread> clients;
  for (size_t u = 0; u < args.users; ++u) {
    clients.emplace_back([&, u] {
      const workload::RefinementSequence& seq = seqs[u % seqs.size()];
      for (size_t loop = 0; loop < args.loops; ++loop) {
        for (const workload::RefinementStep& step : seq.steps) {
          Result<serve::QueryResponse> r = server.Execute(u, step.query);
          // Saturated admission (queue_depth < the closed-loop
          // population): back off and resubmit. The server counts every
          // rejection, and the cell's telemetry reports the total.
          while (!r.ok() &&
                 r.status().code() == StatusCode::kResourceExhausted) {
            fault::SleepUs(200);
            r = server.Execute(u, step.query);
          }
          if (!r.ok()) {
            std::fprintf(stderr, "query failed: %s\n",
                         r.status().message().c_str());
            std::exit(1);
          }
          latencies[u].push_back(
              static_cast<double>(r.value().latency.count()));
        }
      }
    });
  }
  for (auto& t : clients) t.join();
  const double wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  server.Stop();

  std::vector<double> all;
  for (const auto& per_user : latencies) {
    all.insert(all.end(), per_user.begin(), per_user.end());
  }
  const buffer::BufferStats pool = server.PoolStatsSnapshot();

  CellResult cell;
  cell.wall_seconds = wall;
  cell.completed = server.StatsSnapshot().completed;
  cell.rejected = server.StatsSnapshot().rejected;
  cell.throughput_qps =
      wall > 0.0 ? static_cast<double>(cell.completed) / wall : 0.0;
  cell.p50_us = metrics::Percentile(all, 50.0);
  cell.p90_us = metrics::Percentile(all, 90.0);
  cell.p99_us = metrics::Percentile(all, 99.0);
  cell.hit_rate = pool.HitRate();
  cell.disk_reads = pool.misses;
  cell.prefetch_depth = prefetch_depth;
  serve::PoolPrefetchStats prefetch;
  if (engine != nullptr) {
    for (size_t s = 0; s < engine->num_shards(); ++s) {
      const serve::PoolPrefetchStats shard_stats =
          engine->mutable_pool()->shard(s)->PrefetchStatsSnapshot();
      prefetch.issued += shard_stats.issued;
      prefetch.used += shard_stats.used;
      prefetch.wasted += shard_stats.wasted;
      prefetch.dropped += shard_stats.dropped;
      prefetch.coalesced_misses += shard_stats.coalesced_misses;
      prefetch.device_reads += shard_stats.device_reads;
    }
  } else {
    prefetch = server.mutable_pool()->PrefetchStatsSnapshot();
  }
  cell.prefetch_issued = prefetch.issued;
  cell.prefetch_used = prefetch.used;
  cell.prefetch_wasted = prefetch.wasted;
  cell.prefetch_dropped = prefetch.dropped;
  cell.coalesced_misses = prefetch.coalesced_misses;
  cell.device_reads = prefetch.device_reads;
  if (engine != nullptr) {
    for (size_t s = 0; s < engine->num_shards(); ++s) {
      cell.shard_hit_rates.push_back(
          engine->mutable_pool()->shard(s)->StatsSnapshot().HitRate());
    }
  }

  if (args.instrument) {
    const obs::SpanAttribution attr =
        obs::ComputeAttribution(recorder.Snapshot());
    obs::JsonWriter aw;
    obs::AppendAttributionJson(attr, aw);
    cell.attribution_json = std::move(aw).Take();

    obs::JsonWriter mw;
    mw.BeginObject();
    mw.Key("serve.queue");
    obs::AppendMutexWaitJson(*server.queue_wait_stats(), mw);
    uint64_t latch_wait_ns = 0;
    if (engine != nullptr) {
      for (size_t s = 0; s < engine->num_shards(); ++s) {
        serve::ConcurrentBufferPool* shard_pool =
            engine->mutable_pool()->shard(s);
        mw.Key(StrFormat("shard%zu.latch", s));
        obs::AppendMutexWaitJson(*shard_pool->latch_wait_stats(), mw);
        mw.Key(StrFormat("shard%zu.stripe", s));
        obs::AppendMutexWaitJson(*shard_pool->stripe_wait_stats(), mw);
        latch_wait_ns += shard_pool->latch_wait_stats()->wait_ns_total();
      }
    } else {
      serve::ConcurrentBufferPool* pool_ptr = server.mutable_pool();
      mw.Key("pool.latch");
      obs::AppendMutexWaitJson(*pool_ptr->latch_wait_stats(), mw);
      mw.Key("pool.stripe");
      obs::AppendMutexWaitJson(*pool_ptr->stripe_wait_stats(), mw);
      latch_wait_ns = pool_ptr->latch_wait_stats()->wait_ns_total();
    }
    mw.EndObject();
    cell.mutex_json = std::move(mw).Take();

    // Latch wait over the cell's aggregate worker time: with T workers
    // the run had wall * T thread-seconds to spend, and this is the
    // fraction of it spent blocked on policy latches (summed over every
    // shard pool when sharded).
    const double worker_seconds =
        wall * static_cast<double>(std::max<size_t>(1, threads));
    if (worker_seconds > 0.0) {
      cell.latch_wait_share =
          static_cast<double>(latch_wait_ns) / 1e9 / worker_seconds;
    }
  }
  return cell;
}

/// Renders one sweep cell as the schema-3 telemetry object. `label`
/// overrides config.label so the prefetch A/B pair can reuse the
/// matrix emitter under its legacy/ and block/ names.
std::string CellJson(const char* label, const Config& config, size_t threads,
                     const Args& args, const CellResult& cell) {
  obs::JsonWriter w;
  w.BeginObject()
      .Key("label").Str(label)
      .Key("policy").Str(buffer::PolicyKindName(config.policy))
      .Key("buffer_aware").Bool(config.baf)
      .Key("shared_context").Bool(config.shared_context)
      .Key("shards").UInt(config.shards)
      .Key("workers").UInt(threads)
      .Key("users").UInt(args.users)
      .Key("queries").UInt(cell.completed)
      .Key("rejected").UInt(cell.rejected)
      .Key("wall_seconds").Num(cell.wall_seconds)
      .Key("throughput_qps").Num(cell.throughput_qps)
      .Key("latency_us")
      .BeginObject()
      .Key("p50").Num(cell.p50_us)
      .Key("p90").Num(cell.p90_us)
      .Key("p99").Num(cell.p99_us)
      .EndObject()
      .Key("hit_rate").Num(cell.hit_rate)
      .Key("disk_reads").UInt(cell.disk_reads)
      .Key("prefetch_depth").UInt(cell.prefetch_depth)
      .Key("prefetch_issued").UInt(cell.prefetch_issued)
      .Key("prefetch_used").UInt(cell.prefetch_used)
      .Key("prefetch_wasted").UInt(cell.prefetch_wasted)
      .Key("prefetch_dropped").UInt(cell.prefetch_dropped)
      .Key("coalesced_misses").UInt(cell.coalesced_misses)
      .Key("device_reads").UInt(cell.device_reads)
      .Key("instrumented").Bool(args.instrument);
  if (!cell.shard_hit_rates.empty()) {
    w.Key("shard_hit_rates").BeginArray();
    for (double rate : cell.shard_hit_rates) w.Num(rate);
    w.EndArray();
  }
  if (args.instrument) {
    w.Key("attribution").Raw(cell.attribution_json);
    w.Key("mutex_waits").Raw(cell.mutex_json);
    w.Key("latch_wait_share").Num(cell.latch_wait_share);
  }
  w.EndObject();
  return std::move(w).Take();
}

/// One overload cell: a doubled closed-loop population against a
/// 2-worker server, every query carrying the same completion deadline.
/// `shed` arms overload control (deadline-aware queued-shed + brownout);
/// off, the server is the FIFO baseline that evaluates every admitted
/// query no matter how stale. Goodput counts only answers that came
/// back within the deadline — the FIFO baseline's late answers complete
/// but don't count, which is exactly the "silent latency" the shedding
/// path converts into typed, visible drops.
struct OverloadCell {
  double wall_seconds = 0.0;
  double goodput_qps = 0.0;
  uint64_t completed = 0;
  uint64_t good = 0;  // Completed within deadline_us of submission.
  uint64_t late = 0;  // Completed, but past the deadline (FIFO's sin).
  uint64_t shed = 0;  // Typed kShedWhileQueued outcomes.
};

OverloadCell RunOverloadCell(
    const index::InvertedIndex& index,
    const std::vector<workload::RefinementSequence>& seqs, bool shed,
    uint64_t deadline_us, size_t threads, size_t users, size_t pool_pages,
    const Args& args) {
  serve::ServerOptions options;
  options.num_threads = threads;
  options.queue_depth = users;  // Admission never the limiter here.
  options.buffer_pages = pool_pages;
  options.io_delay_us_per_miss = args.delay_us;
  options.deadline_us = deadline_us;
  options.overload.enabled = shed;
  serve::QueryServer server(&index, options);
  server.Start();

  std::vector<uint64_t> good(users, 0);
  std::vector<uint64_t> late(users, 0);
  std::vector<uint64_t> shed_count(users, 0);
  const auto start = std::chrono::steady_clock::now();
  std::vector<std::thread> clients;
  for (size_t u = 0; u < users; ++u) {
    clients.emplace_back([&, u] {
      const workload::RefinementSequence& seq = seqs[u % seqs.size()];
      for (size_t loop = 0; loop < args.loops; ++loop) {
        for (const workload::RefinementStep& step : seq.steps) {
          Result<serve::QueryResponse> r = server.Execute(u, step.query);
          if (!r.ok()) {
            if (r.status().code() == StatusCode::kShedWhileQueued) {
              ++shed_count[u];
              continue;
            }
            std::fprintf(stderr, "overload cell query failed: %s\n",
                         r.status().message().c_str());
            std::exit(1);
          }
          const uint64_t latency_us =
              static_cast<uint64_t>(r.value().latency.count());
          if (latency_us <= deadline_us) {
            ++good[u];
          } else {
            ++late[u];
          }
        }
      }
    });
  }
  for (auto& t : clients) t.join();
  const double wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  server.Stop();

  OverloadCell cell;
  cell.wall_seconds = wall;
  cell.completed = server.StatsSnapshot().completed;
  for (size_t u = 0; u < users; ++u) {
    cell.good += good[u];
    cell.late += late[u];
    cell.shed += shed_count[u];
  }
  cell.goodput_qps =
      wall > 0.0 ? static_cast<double>(cell.good) / wall : 0.0;
  return cell;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = ParseArgs(argc, argv);
  const corpus::SyntheticCorpus& corpus = bench::GetCorpus();
  const index::InvertedIndex& index = corpus.index();

  bench::PrintHeader(
      "Extension - concurrent query serving under closed-loop load",
      "a multi-user server over one shared pool: throughput scales with "
      "workers while buffer-aware evaluation and ranking-aware "
      "replacement keep their single-user savings");

  // Each user refines one of the designed topics; users beyond the
  // topic count share topics, giving the overlapping working sets the
  // shared pool exists for.
  std::vector<workload::RefinementSequence> sequences;
  uint64_t union_ws = 0;
  for (size_t ti = 0; ti < corpus.topics().size(); ++ti) {
    auto seq = workload::BuildRefinementSequence(
        corpus.topics()[ti].title, corpus.topics()[ti].query, index,
        workload::RefinementKind::kAddOnly);
    if (!seq.ok()) {
      std::fprintf(stderr, "sequence build failed\n");
      return 1;
    }
    union_ws += ir::SequenceWorkingSetPages(index, seq.value());
    sequences.push_back(std::move(seq).value());
  }
  const size_t pool_pages = std::max<size_t>(
      16, static_cast<size_t>(0.2 * static_cast<double>(union_ws)));

  std::printf(
      "%zu users x %zu loops, pool %zu pages (20%% of %llu-page union "
      "working set), %u us simulated read latency\n\n",
      args.users, args.loops, pool_pages,
      static_cast<unsigned long long>(union_ws), args.delay_us);

  // Shard counts 1 (the classic single-pool rows) through 8; the
  // sharded rows keep the same TOTAL page budget, split per shard.
  const Config configs[] = {
      {"DF/LRU", buffer::PolicyKind::kLru, false, false, 1},
      {"BAF/LRU", buffer::PolicyKind::kLru, true, false, 1},
      {"DF/RAP", buffer::PolicyKind::kRap, false, false, 1},
      {"BAF/RAP(shared)", buffer::PolicyKind::kRap, true, true, 1},
      {"DF/LRU x2 shards", buffer::PolicyKind::kLru, false, false, 2},
      {"DF/LRU x4 shards", buffer::PolicyKind::kLru, false, false, 4},
      {"DF/LRU x8 shards", buffer::PolicyKind::kLru, false, false, 8},
      {"DF/RAP x2 shards", buffer::PolicyKind::kRap, false, false, 2},
      {"DF/RAP x4 shards", buffer::PolicyKind::kRap, false, false, 4},
      {"DF/RAP x8 shards", buffer::PolicyKind::kRap, false, false, 8},
  };
  const size_t thread_counts[] = {1, 2, 4, 8};

  // Build each distinct shard count once; every cell of that shard
  // count serves from the same partition (fresh pools per cell).
  std::map<size_t, shard::ShardedIndex> sharded_indices;
  for (const Config& config : configs) {
    if (config.shards <= 1 || sharded_indices.count(config.shards) != 0) {
      continue;
    }
    shard::ShardOptions sharding;
    sharding.num_shards = config.shards;
    sharding.page_size = corpus.profile().page_size;
    auto sharded = shard::ShardIndex(index, sharding);
    if (!sharded.ok()) {
      std::fprintf(stderr, "sharding failed: %s\n",
                   sharded.status().ToString().c_str());
      return 1;
    }
    sharded_indices.emplace(config.shards, std::move(sharded).value());
  }

  bench::TelemetryFile telemetry("bench_serve_throughput");
  for (const Config& config : configs) {
    std::printf("%s\n", config.label);
    AsciiTable table({"workers", "wall s", "q/s", "p50 ms", "p90 ms",
                      "p99 ms", "hit rate", "disk reads", "latch wait"});
    double qps_1 = 0.0;
    double qps_last = 0.0;
    for (size_t threads : thread_counts) {
      const shard::ShardedIndex* sharded =
          config.shards > 1 ? &sharded_indices.at(config.shards) : nullptr;
      const CellResult cell =
          RunCell(index, sharded, sequences, config, threads, pool_pages,
                  /*prefetch_depth=*/0, args);
      if (threads == 1) qps_1 = cell.throughput_qps;
      qps_last = cell.throughput_qps;
      table.AddRow({StrFormat("%zu", threads),
                    StrFormat("%.3f", cell.wall_seconds),
                    StrFormat("%.1f", cell.throughput_qps),
                    StrFormat("%.2f", cell.p50_us / 1000.0),
                    StrFormat("%.2f", cell.p90_us / 1000.0),
                    StrFormat("%.2f", cell.p99_us / 1000.0),
                    StrFormat("%.3f", cell.hit_rate),
                    StrFormat("%llu",
                              static_cast<unsigned long long>(
                                  cell.disk_reads)),
                    bench::Percent(cell.latch_wait_share)});

      telemetry.AddRaw(CellJson(config.label, config, threads, args, cell));
    }
    std::printf("%s", table.ToString().c_str());
    std::printf("  1 -> 8 workers: %.2fx throughput\n\n",
                qps_1 > 0.0 ? qps_last / qps_1 : 0.0);
  }

  // ---- Overload pair: FIFO baseline vs deadline-aware shedding. ----
  // Calibrate the deadline off an unloaded run (single user, single
  // worker, fresh pool), then hit a 2-worker server with twice the
  // sweep's population: queue dwell alone blows most budgets. The FIFO
  // baseline evaluates every stale query into a late answer (completed
  // but not good); the shedding server drops them typed and spends its
  // workers on queries that can still make their deadline. The gate —
  // ab_compare --min-speedup overload@2w=1.0, report-only in CI — is
  // that shedding's goodput never falls below FIFO's.
  {
    const size_t overload_threads = 2;
    const size_t overload_users = args.users * 2;
    std::vector<double> unloaded;
    {
      serve::ServerOptions calibration;
      calibration.num_threads = 1;
      calibration.buffer_pages = pool_pages;
      calibration.io_delay_us_per_miss = args.delay_us;
      serve::QueryServer server(&index, calibration);
      server.Start();
      for (const workload::RefinementStep& step : sequences[0].steps) {
        auto r = server.Execute(0, step.query);
        if (!r.ok()) {
          std::fprintf(stderr, "calibration query failed\n");
          return 1;
        }
        unloaded.push_back(static_cast<double>(r.value().latency.count()));
      }
      server.Stop();
    }
    const uint64_t deadline_us = static_cast<uint64_t>(
        std::max(1.0, 6.0 * metrics::Percentile(unloaded, 50.0)));

    std::printf("overload: %zu users vs %zu workers, deadline %.1f ms "
                "(6x unloaded p50)\n",
                overload_users, overload_threads,
                static_cast<double>(deadline_us) / 1000.0);
    AsciiTable table({"mode", "wall s", "goodput q/s", "good", "late",
                      "shed", "completed"});
    const struct {
      const char* label;
      bool shed;
    } modes[] = {{"legacy/overload", false}, {"block/overload", true}};
    for (const auto& mode : modes) {
      const OverloadCell cell = RunOverloadCell(
          index, sequences, mode.shed, deadline_us, overload_threads,
          overload_users, pool_pages, args);
      table.AddRow(
          {mode.label, StrFormat("%.3f", cell.wall_seconds),
           StrFormat("%.1f", cell.goodput_qps),
           StrFormat("%llu", static_cast<unsigned long long>(cell.good)),
           StrFormat("%llu", static_cast<unsigned long long>(cell.late)),
           StrFormat("%llu", static_cast<unsigned long long>(cell.shed)),
           StrFormat("%llu",
                     static_cast<unsigned long long>(cell.completed))});
      obs::JsonWriter w;
      w.BeginObject()
          .Key("label").Str(mode.label)
          .Key("workers").UInt(overload_threads)
          .Key("users").UInt(overload_users)
          .Key("deadline_us").UInt(deadline_us)
          .Key("wall_seconds").Num(cell.wall_seconds)
          .Key("throughput_qps").Num(cell.goodput_qps)  // Goodput.
          .Key("good").UInt(cell.good)
          .Key("late").UInt(cell.late)
          .Key("shed").UInt(cell.shed)
          .Key("completed").UInt(cell.completed)
          .Key("instrumented").Bool(false)
          .EndObject();
      telemetry.AddRaw(std::move(w).Take());
    }
    std::printf("%s\n", table.ToString().c_str());
  }

  // ---- Prefetch pair: synchronous misses vs the async miss pipeline. --
  // Same binary, same config (DF/RAP, single shared pool, 8 workers at
  // the committed miss delay): depth 0 IS the pre-pipeline synchronous
  // path (no I/O workers spawn, Prefetch() is a no-op), depth 4 arms
  // miss coalescing + plan-driven readahead. Besides the two full cells,
  // four dedicated lower-is-better records carry the gated numbers:
  // p99_us, and disk_reads (demand misses — readahead converts them
  // into prefetch_issued reads off the query's critical path; the full
  // cells report device_reads for the honest device total). CI gate,
  // report-only: ab_compare --min-speedup prefetch_p99@8w=1.0
  // --min-speedup prefetch_reads@8w=1.0.
  {
    const Config prefetch_config = {"prefetch", buffer::PolicyKind::kRap,
                                    false, false, 1};
    const size_t prefetch_threads = 8;
    std::printf("prefetch: DF/RAP, %zu workers, readahead depth 0 vs 4\n",
                prefetch_threads);
    AsciiTable table({"mode", "q/s", "p99 ms", "hit rate", "demand reads",
                      "device reads", "issued", "used", "wasted",
                      "dropped", "coalesced"});
    const struct {
      const char* label;
      size_t depth;
    } modes[] = {{"legacy/prefetch", 0}, {"block/prefetch", 4}};
    for (const auto& mode : modes) {
      const CellResult cell =
          RunCell(index, nullptr, sequences, prefetch_config,
                  prefetch_threads, pool_pages, mode.depth, args);
      table.AddRow(
          {mode.label, StrFormat("%.1f", cell.throughput_qps),
           StrFormat("%.2f", cell.p99_us / 1000.0),
           StrFormat("%.3f", cell.hit_rate),
           StrFormat("%llu", static_cast<unsigned long long>(cell.disk_reads)),
           StrFormat("%llu",
                     static_cast<unsigned long long>(cell.device_reads)),
           StrFormat("%llu",
                     static_cast<unsigned long long>(cell.prefetch_issued)),
           StrFormat("%llu",
                     static_cast<unsigned long long>(cell.prefetch_used)),
           StrFormat("%llu",
                     static_cast<unsigned long long>(cell.prefetch_wasted)),
           StrFormat("%llu",
                     static_cast<unsigned long long>(cell.prefetch_dropped)),
           StrFormat("%llu", static_cast<unsigned long long>(
                                 cell.coalesced_misses))});
      telemetry.AddRaw(
          CellJson(mode.label, prefetch_config, prefetch_threads, args, cell));
      obs::JsonWriter p;
      p.BeginObject()
          .Key("label").Str(StrFormat("%s_p99", mode.label))
          .Key("workers").UInt(prefetch_threads)
          .Key("p99_us").Num(cell.p99_us)
          .Key("instrumented").Bool(false)
          .EndObject();
      telemetry.AddRaw(std::move(p).Take());
      obs::JsonWriter d;
      d.BeginObject()
          .Key("label").Str(StrFormat("%s_reads", mode.label))
          .Key("workers").UInt(prefetch_threads)
          .Key("disk_reads").UInt(cell.disk_reads)
          .Key("instrumented").Bool(false)
          .EndObject();
      telemetry.AddRaw(std::move(d).Take());
    }
    std::printf("%s\n", table.ToString().c_str());
  }
  telemetry.Close();
  return 0;
}
