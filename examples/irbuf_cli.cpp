// irbuf_cli: a small command-line front end to the library — generate and
// persist calibrated collections, inspect them, and run single queries or
// whole refinement sequences under any (algorithm, policy, buffer-size)
// configuration.
//
//   irbuf_cli generate --scale 0.1 --out corpus.irbc
//   irbuf_cli stats corpus.irbc
//   irbuf_cli topics corpus.irbc
//   irbuf_cli query corpus.irbc --topic 0 --policy rap --baf --buffers 200
//   irbuf_cli refine corpus.irbc --topic 1 --kind add-drop --policy mru
//   irbuf_cli serve corpus.irbc --threads 4 --users 8 --queue-depth 8
//
// Observability: --trace prints the query record's timeline (term loops
// with their thresholds and Smax, hit/miss-tagged page pins, miss reads,
// phase transitions, evictions with victim metadata, Smax updates);
// --telemetry FILE writes the machine-readable JSON (run summary + trace
// + metrics-registry snapshot) to FILE.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include <atomic>
#include <chrono>
#include <thread>

#include "corpus/corpus_io.h"
#include "fault/fault_injector.h"
#include "fault/fault_spec.h"
#include "ir/experiment.h"
#include "metrics/effectiveness.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/span.h"
#include "serve/query_server.h"
#include "shard/index_sharder.h"
#include "shard/sharded_engine.h"
#include "util/str.h"
#include "workload/refinement.h"

using namespace irbuf;

namespace {

struct Args {
  std::string command;
  std::string file;
  double scale = 0.05;
  std::string out = "corpus.irbc";
  int topic = 0;
  std::string policy = "lru";
  bool baf = false;
  size_t buffers = 200;
  std::string kind = "add-only";
  bool trace = false;
  std::string telemetry;  // output path; empty = no JSON export
  // Fault injection / resilience (refine and serve commands).
  std::string fault_spec;     // JSON FaultSpec; empty = no injection.
  uint64_t deadline_ms = 0;   // per-query deadline; 0 = none.
  // Overload control (serve): deadline-aware queued-shed + brownout.
  bool overload = false;
  double shed_factor = 1.0;
  // serve command.
  size_t threads = 4;
  size_t users = 4;
  size_t queue_depth = 0;  // 0 = users.
  size_t loops = 1;
  uint32_t delay_us = 500;
  /// Pages each scan reads ahead (serve). 0 = synchronous miss path.
  size_t prefetch_depth = 0;
  bool shared_context = false;
  /// Doc-range shards (serve). 1 = the classic single-pool path; N > 1
  /// partitions the index and serves scatter-gather over N per-shard
  /// buffer pools (shard/sharded_engine.h).
  size_t shards = 1;
  /// Chrome trace_event output path (serve); empty = spans off.
  std::string trace_spans;
};

int Usage() {
  std::fprintf(
      stderr,
      "usage:\n"
      "  irbuf_cli generate [--scale S] [--out FILE]\n"
      "  irbuf_cli stats FILE\n"
      "  irbuf_cli topics FILE\n"
      "  irbuf_cli query FILE [--topic N] [--policy P] [--baf] "
      "[--buffers B] [--trace] [--telemetry OUT]\n"
      "  irbuf_cli refine FILE [--topic N] [--kind add-only|add-drop] "
      "[--policy P] [--baf] [--buffers B] [--trace] [--telemetry OUT]\n"
      "  irbuf_cli serve FILE [--threads N] [--users N] [--queue-depth N] "
      "[--loops N] [--delay-us N] [--policy P] [--baf] [--shared-context] "
      "[--buffers B] [--shards N] [--prefetch-depth N] [--telemetry OUT] "
      "[--trace-spans OUT]\n"
      "policies: lru mru rap lru-2 2q clock fifo\n"
      "--shards N (serve) partitions the index into N doc-range shards, "
      "each with its own buffer pool and policy instance, and serves "
      "queries scatter-gather; --buffers is the TOTAL page budget, split "
      "evenly\n"
      "--prefetch-depth N (serve) arms the async miss pipeline: each "
      "term scan keeps N pages read ahead of its demand fetches "
      "(default 0 = synchronous misses; 4 is a good start at 2ms "
      "device delay)\n"
      "--trace prints the per-query record timeline; --telemetry OUT "
      "writes machine-readable JSON\n"
      "--trace-spans OUT (serve) records per-stage latency spans and "
      "lock waits and writes Chrome trace_event JSON — open OUT in "
      "ui.perfetto.dev; the latency decomposition also lands in "
      "--telemetry output\n"
      "resilience (refine/serve): --fault-spec JSON injects disk faults "
      "(see DESIGN.md \"Failure model\"), e.g.\n"
      "  --fault-spec '{\"seed\":7,\"rules\":[{\"kind\":\"transient\","
      "\"p\":0.01}]}'\n"
      "--deadline-ms N cuts each query at N ms and returns the partial "
      "ranking\n"
      "a rule with \"shard\":N (serve, --shards > 1) applies only to "
      "that shard's device — e.g. black out shard 2 of 4 with\n"
      "  --shards 4 --fault-spec "
      "'{\"rules\":[{\"kind\":\"bad_page\",\"p\":1,\"shard\":2}]}'\n"
      "--overload (serve) arms deadline-aware load shedding: queries "
      "whose --deadline-ms budget is spent while queued are shed with a "
      "typed status instead of evaluated late, and sustained queue delay "
      "browns out (trims) answers before anything is dropped; "
      "--shed-factor F sheds when the remaining budget is under F x the "
      "observed p50 service time (default 1.0)\n");
  return 2;
}

bool ParseArgs(int argc, char** argv, Args* args) {
  if (argc < 2) return false;
  args->command = argv[1];
  int i = 2;
  if (args->command != "generate" && i < argc && argv[i][0] != '-') {
    args->file = argv[i++];
  }
  for (; i < argc; ++i) {
    std::string flag = argv[i];
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (flag == "--scale") {
      const char* v = next();
      if (v == nullptr) return false;
      args->scale = std::atof(v);
    } else if (flag == "--out") {
      const char* v = next();
      if (v == nullptr) return false;
      args->out = v;
    } else if (flag == "--topic") {
      const char* v = next();
      if (v == nullptr) return false;
      args->topic = std::atoi(v);
    } else if (flag == "--policy") {
      const char* v = next();
      if (v == nullptr) return false;
      args->policy = v;
    } else if (flag == "--buffers") {
      const char* v = next();
      if (v == nullptr) return false;
      args->buffers = static_cast<size_t>(std::atoll(v));
    } else if (flag == "--kind") {
      const char* v = next();
      if (v == nullptr) return false;
      args->kind = v;
    } else if (flag == "--telemetry") {
      const char* v = next();
      if (v == nullptr) return false;
      args->telemetry = v;
    } else if (flag == "--threads") {
      const char* v = next();
      if (v == nullptr) return false;
      args->threads = static_cast<size_t>(std::atoll(v));
    } else if (flag == "--users") {
      const char* v = next();
      if (v == nullptr) return false;
      args->users = static_cast<size_t>(std::atoll(v));
    } else if (flag == "--queue-depth") {
      const char* v = next();
      if (v == nullptr) return false;
      args->queue_depth = static_cast<size_t>(std::atoll(v));
    } else if (flag == "--loops") {
      const char* v = next();
      if (v == nullptr) return false;
      args->loops = static_cast<size_t>(std::atoll(v));
    } else if (flag == "--delay-us") {
      const char* v = next();
      if (v == nullptr) return false;
      args->delay_us = static_cast<uint32_t>(std::atoll(v));
    } else if (flag == "--shards") {
      const char* v = next();
      if (v == nullptr) return false;
      args->shards = static_cast<size_t>(std::atoll(v));
    } else if (flag == "--prefetch-depth") {
      const char* v = next();
      if (v == nullptr) return false;
      args->prefetch_depth = static_cast<size_t>(std::atoll(v));
    } else if (flag == "--fault-spec") {
      const char* v = next();
      if (v == nullptr) return false;
      args->fault_spec = v;
    } else if (flag == "--deadline-ms") {
      const char* v = next();
      if (v == nullptr) return false;
      args->deadline_ms = static_cast<uint64_t>(std::atoll(v));
    } else if (flag == "--shed-factor") {
      const char* v = next();
      if (v == nullptr) return false;
      args->shed_factor = std::atof(v);
    } else if (flag == "--overload") {
      args->overload = true;
    } else if (flag == "--trace-spans") {
      const char* v = next();
      if (v == nullptr) return false;
      args->trace_spans = v;
    } else if (flag == "--shared-context") {
      args->shared_context = true;
    } else if (flag == "--trace") {
      args->trace = true;
    } else if (flag == "--baf") {
      args->baf = true;
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", flag.c_str());
      return false;
    }
  }
  return true;
}

int Generate(const Args& args) {
  corpus::CorpusOptions options;
  options.scale = args.scale;
  std::printf("generating (scale %.3f)...\n", args.scale);
  auto corpus = corpus::GenerateSyntheticCorpus(options);
  if (!corpus.ok()) {
    std::fprintf(stderr, "%s\n", corpus.status().ToString().c_str());
    return 1;
  }
  Status saved = corpus::SaveCorpus(*corpus.value(), args.out);
  if (!saved.ok()) {
    std::fprintf(stderr, "%s\n", saved.ToString().c_str());
    return 1;
  }
  std::printf("wrote %s (%u docs, %zu terms, %llu postings, %zu topics)\n",
              args.out.c_str(), corpus.value()->index().num_docs(),
              corpus.value()->index().lexicon().size(),
              static_cast<unsigned long long>(
                  corpus.value()->index().disk().total_postings()),
              corpus.value()->topics().size());
  return 0;
}

int Stats(const corpus::SyntheticCorpus& corpus) {
  const index::InvertedIndex& index = corpus.index();
  std::printf("documents        : %u\n", index.num_docs());
  std::printf("terms            : %zu\n", index.lexicon().size());
  std::printf("postings         : %llu\n",
              static_cast<unsigned long long>(
                  index.disk().total_postings()));
  std::printf("pages (size %u)  : %llu\n", corpus.profile().page_size,
              static_cast<unsigned long long>(index.total_pages()));
  std::printf("compressed bytes : %llu (%.2f/posting)\n",
              static_cast<unsigned long long>(
                  index.disk().compressed_bytes()),
              static_cast<double>(index.disk().compressed_bytes()) /
                  static_cast<double>(index.disk().total_postings()));
  std::printf("conversion table : %zu rows / %zu bytes\n",
              index.conversion_table().num_entries(),
              index.conversion_table().ApproxBytes());
  std::printf("topics           : %zu\n", corpus.topics().size());
  AsciiTable table({"group", "pages", "terms"});
  for (const corpus::IdfGroup& g : corpus.profile().groups) {
    table.AddRow({g.name, StrFormat("%u-%u", g.pages_lo, g.pages_hi),
                  StrFormat("%u", g.num_terms)});
  }
  std::printf("%s", table.ToString().c_str());
  return 0;
}

int Topics(const corpus::SyntheticCorpus& corpus) {
  AsciiTable table({"#", "title", "terms", "pages", "relevant"});
  for (size_t i = 0; i < corpus.topics().size(); ++i) {
    const corpus::Topic& t = corpus.topics()[i];
    table.AddRow({
        StrFormat("%zu", i),
        t.title,
        StrFormat("%zu", t.query.size()),
        StrFormat("%llu", static_cast<unsigned long long>(
                              ir::TotalQueryPages(corpus.index(),
                                                  t.query))),
        StrFormat("%zu", t.relevant_docs.size()),
    });
  }
  std::printf("%s", table.ToString().c_str());
  return 0;
}

/// Parses --fault-spec and installs the injector on the corpus's disk.
/// Returns nullptr (with a message) on a malformed spec when one was
/// requested; returns an empty unique_ptr with *ok=true when no spec was
/// given. The injector must outlive every read of the run.
std::unique_ptr<fault::FaultInjector> InstallFaultInjector(
    const corpus::SyntheticCorpus& corpus, const Args& args, bool* ok) {
  *ok = true;
  if (args.fault_spec.empty()) return nullptr;
  Result<fault::FaultSpec> spec = fault::ParseFaultSpec(args.fault_spec);
  if (!spec.ok()) {
    std::fprintf(stderr, "bad --fault-spec: %s\n",
                 spec.status().ToString().c_str());
    *ok = false;
    return nullptr;
  }
  auto injector = std::make_unique<fault::FaultInjector>(spec.value());
  corpus.index().disk().SetFaultInjector(injector.get());
  return injector;
}

/// Writes `json` to `path`; reports the destination on success under
/// `label` (the left-hand column of the run summary).
bool WriteJsonFile(const std::string& path, const std::string& json,
                   const char* label = "telemetry") {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return false;
  }
  const bool ok =
      std::fwrite(json.data(), 1, json.size(), f) == json.size() &&
      std::fputc('\n', f) != EOF;
  std::fclose(f);
  if (ok) std::printf("%-13s: %s\n", label, path.c_str());
  return ok;
}

/// Prints the recorded timeline (--trace): one record per line, tagged
/// with its query (the refinement step), in start order.
void PrintTrace(const obs::SpanRecorder& recorder) {
  const std::vector<obs::ThreadSpans> snapshot = recorder.Snapshot();
  size_t records = 0;
  for (const obs::ThreadSpans& ts : snapshot) records += ts.spans.size();
  std::printf("\ntrace (%zu records):\n%s", records,
              obs::DumpText(snapshot).c_str());
}

int RunQuery(const corpus::SyntheticCorpus& corpus, const Args& args,
             buffer::PolicyKind policy) {
  if (args.topic < 0 ||
      static_cast<size_t>(args.topic) >= corpus.topics().size()) {
    std::fprintf(stderr, "no topic %d\n", args.topic);
    return 1;
  }
  const corpus::Topic& topic = corpus.topics()[args.topic];
  core::EvalOptions eval;
  eval.buffer_aware = args.baf;
  obs::SpanRecorder recorder;
  const bool want_obs = args.trace || !args.telemetry.empty();
  if (want_obs) eval.span_recorder = &recorder;
  auto result = ir::RunColdQuery(corpus.index(), topic.query, eval, policy);
  if (!result.ok()) {
    std::fprintf(stderr, "%s\n", result.status().ToString().c_str());
    return 1;
  }
  std::printf("%s (%s, cold buffers)\n", topic.title.c_str(),
              args.baf ? "BAF" : "DF");
  std::printf("disk reads   : %llu\n",
              static_cast<unsigned long long>(result.value().disk_reads));
  std::printf("postings     : %llu\n",
              static_cast<unsigned long long>(
                  result.value().postings_processed));
  std::printf("accumulators : %llu\n",
              static_cast<unsigned long long>(
                  result.value().accumulators));
  const double ap = metrics::AveragePrecision(result.value().top_docs,
                                              topic.relevant_docs);
  std::printf("AP           : %.4f\n", ap);
  std::printf("top answers  :");
  for (size_t i = 0; i < std::min<size_t>(10, result.value().top_docs.size());
       ++i) {
    std::printf(" d%u", result.value().top_docs[i].doc);
  }
  std::printf("\n");
  if (!args.telemetry.empty()) {
    obs::JsonWriter w;
    w.BeginObject();
    w.Key("label").Str(topic.title);
    w.Key("command").Str("query");
    w.Key("algorithm").Str(args.baf ? "BAF" : "DF");
    w.Key("policy").Str(buffer::PolicyKindName(policy));
    w.Key("disk_reads").UInt(result.value().disk_reads);
    w.Key("postings_processed").UInt(result.value().postings_processed);
    w.Key("accumulators").UInt(result.value().accumulators);
    w.Key("avg_precision").Num(ap);
    w.Key("trace").Raw(obs::ToJson(recorder.Snapshot()));
    w.EndObject();
    if (!WriteJsonFile(args.telemetry, std::move(w).Take())) return 1;
  }
  if (args.trace) PrintTrace(recorder);
  return 0;
}

int Refine(const corpus::SyntheticCorpus& corpus, const Args& args,
           buffer::PolicyKind policy) {
  if (args.topic < 0 ||
      static_cast<size_t>(args.topic) >= corpus.topics().size()) {
    std::fprintf(stderr, "no topic %d\n", args.topic);
    return 1;
  }
  const corpus::Topic& topic = corpus.topics()[args.topic];
  workload::RefinementKind kind = args.kind == "add-drop"
                                      ? workload::RefinementKind::kAddDrop
                                      : workload::RefinementKind::kAddOnly;
  auto sequence = workload::BuildRefinementSequence(
      topic.title, topic.query, corpus.index(), kind);
  if (!sequence.ok()) {
    std::fprintf(stderr, "%s\n", sequence.status().ToString().c_str());
    return 1;
  }
  ir::SequenceRunOptions run;
  run.buffer_aware = args.baf;
  run.policy = policy;
  run.buffer_pages = args.buffers;
  bool fault_ok = false;
  std::unique_ptr<fault::FaultInjector> injector =
      InstallFaultInjector(corpus, args, &fault_ok);
  if (!fault_ok) return 2;
  if (injector != nullptr) run.resilience.enabled = true;
  run.deadline_us = args.deadline_ms * 1000;
  obs::SpanRecorder recorder;
  obs::MetricsRegistry registry;
  const bool want_obs = args.trace || !args.telemetry.empty();
  if (want_obs) {
    run.span_recorder = &recorder;
    run.metrics = &registry;
  }
  auto result = ir::RunRefinementSequence(corpus.index(), sequence.value(),
                                          topic.relevant_docs, run);
  if (injector != nullptr) corpus.index().disk().SetFaultInjector(nullptr);
  if (!result.ok()) {
    std::fprintf(stderr, "%s\n", result.status().ToString().c_str());
    return 1;
  }
  std::printf("%s %s, %s/%s, %zu buffer pages\n", topic.title.c_str(),
              workload::RefinementKindName(kind), args.baf ? "BAF" : "DF",
              buffer::PolicyKindName(policy), args.buffers);
  AsciiTable table({"refinement", "terms", "reads", "postings", "hit%",
                    "evict", "AP", "lost"});
  for (size_t s = 0; s < result.value().steps.size(); ++s) {
    const ir::StepResult& sr = result.value().steps[s];
    table.AddRow({
        StrFormat("%zu", s + 1),
        StrFormat("%zu", sequence.value().steps[s].query.size()),
        StrFormat("%llu", static_cast<unsigned long long>(sr.disk_reads)),
        StrFormat("%llu", static_cast<unsigned long long>(
                              sr.postings_processed)),
        StrFormat("%.1f", sr.buffer.HitRate() * 100.0),
        StrFormat("%llu",
                  static_cast<unsigned long long>(sr.buffer.evictions)),
        StrFormat("%.3f", sr.avg_precision),
        sr.degraded ? StrFormat("%u%s", sr.pages_lost,
                                sr.deadline_hit ? "*" : "")
                    : std::string("-"),
    });
  }
  std::printf("%s", table.ToString().c_str());
  std::printf("total reads: %llu\n",
              static_cast<unsigned long long>(
                  result.value().total_disk_reads));
  if (result.value().degraded_steps > 0) {
    std::printf("degraded    : %u step(s), %llu page(s) lost "
                "(* = deadline hit)\n",
                result.value().degraded_steps,
                static_cast<unsigned long long>(
                    result.value().total_pages_lost));
  }
  if (!args.telemetry.empty()) {
    obs::JsonWriter w;
    w.BeginObject();
    w.Key("run").Raw(ir::SequenceTelemetryJson(
        topic.title, run, result.value(), want_obs ? &recorder : nullptr));
    w.Key("metrics").Raw(registry.ToJson());
    w.EndObject();
    if (!WriteJsonFile(args.telemetry, std::move(w).Take())) return 1;
  }
  if (args.trace) {
    std::printf("\nmetrics:\n%s", registry.DumpText().c_str());
    PrintTrace(recorder);
  }
  return 0;
}

/// Closed-loop load against a QueryServer: `--users` sessions (cycling
/// over the corpus topics' refinement sequences) with one outstanding
/// query each, `--threads` workers, `--delay-us` simulated device time
/// per buffer miss. Prints throughput, latency percentiles (from the
/// serve.latency_us histogram) and pool hit rate.
int Serve(const corpus::SyntheticCorpus& corpus, const Args& args,
          buffer::PolicyKind policy) {
  std::vector<workload::RefinementSequence> sequences;
  for (const corpus::Topic& topic : corpus.topics()) {
    auto seq = workload::BuildRefinementSequence(
        topic.title, topic.query, corpus.index(),
        workload::RefinementKind::kAddOnly);
    if (!seq.ok()) {
      std::fprintf(stderr, "%s\n", seq.status().ToString().c_str());
      return 1;
    }
    sequences.push_back(std::move(seq).value());
  }

  serve::ServerOptions options;
  options.num_threads = args.threads;
  options.queue_depth = args.queue_depth == 0 ? args.users : args.queue_depth;
  options.buffer_pages = args.buffers;
  options.policy = policy;
  options.eval.buffer_aware = args.baf;
  options.eval.record_trace = false;
  options.shared_context = args.shared_context;
  options.io_delay_us_per_miss = args.delay_us;
  options.prefetch_depth = args.prefetch_depth;
  options.deadline_us = args.deadline_ms * 1000;
  if (args.overload) {
    options.overload.enabled = true;
    options.overload.shed_factor = args.shed_factor;
  }
  // Span recorder outlives the server (the server's destructor detaches
  // it from the disk before workers are gone).
  obs::SpanRecorder recorder;
  const bool spans = !args.trace_spans.empty();
  if (spans) {
    options.span_recorder = &recorder;
    options.profile_contention = true;
  }
  bool fault_ok = false;
  std::unique_ptr<fault::FaultInjector> injector =
      InstallFaultInjector(corpus, args, &fault_ok);
  if (!fault_ok) return 2;
  if (injector != nullptr) options.resilience.enabled = true;

  // --shards N: partition the index and route every query through the
  // scatter-gather engine; the server's built-in pool sits idle.
  const bool sharded_serving = args.shards > 1;
  shard::ShardedIndex sharded_index;
  std::unique_ptr<shard::ShardedEngine> engine;
  if (sharded_serving) {
    shard::ShardOptions sharding;
    sharding.num_shards = args.shards;
    sharding.page_size = corpus.profile().page_size;
    auto sharded = shard::ShardIndex(corpus.index(), sharding);
    if (!sharded.ok()) {
      std::fprintf(stderr, "sharding failed: %s\n",
                   sharded.status().ToString().c_str());
      return 1;
    }
    sharded_index = std::move(sharded).value();
    shard::ShardedEngineOptions engine_options;
    engine_options.eval = options.eval;
    engine_options.eval.span_recorder = options.span_recorder;
    engine_options.pool.total_pages = args.buffers;
    engine_options.pool.policy = policy;
    engine_options.pool.io_delay_us_per_miss = args.delay_us;
    engine_options.pool.prefetch_depth = args.prefetch_depth;
    engine_options.pool.resilience = options.resilience;
    engine_options.pool.profile_contention = options.profile_contention;
    engine_options.lanes_per_shard = args.threads;
    engine_options.shared_context = args.shared_context;
    engine = std::make_unique<shard::ShardedEngine>(&sharded_index,
                                                    engine_options);
    options.engine = engine.get();
  }
  // The engine reads the shard posting files, not the source's: each
  // shard gets its own injector holding only the rules that select it
  // ("shard":N) plus the global ones, so a campaign can black out or
  // slow a single failure domain.
  std::vector<std::unique_ptr<fault::FaultInjector>> shard_injectors;
  if (injector != nullptr && sharded_serving) {
    const fault::FaultSpec spec =
        fault::ParseFaultSpec(args.fault_spec).value();  // Validated above.
    for (size_t s = 0; s < sharded_index.num_shards(); ++s) {
      shard_injectors.push_back(std::make_unique<fault::FaultInjector>(
          fault::FilterForShard(spec, s)));
      sharded_index.shard(s).disk().SetFaultInjector(
          shard_injectors.back().get());
    }
  }

  obs::MetricsRegistry registry;
  serve::QueryServer server(&corpus.index(), options);
  server.BindMetrics(&registry);
  if (engine != nullptr) engine->BindMetrics(&registry);
  // Mirror per-mutex wait distributions into the registry so they ride
  // along in the --telemetry metrics snapshot.
  obs::MutexWaitBinding queue_binding;
  obs::MutexWaitBinding latch_binding;
  obs::MutexWaitBinding stripe_binding;
  std::vector<std::unique_ptr<obs::MutexWaitBinding>> shard_bindings;
  if (spans) {
    const std::vector<double> bounds = obs::MutexWaitHistogramBounds();
    queue_binding.Bind(
        server.queue_wait_stats(),
        registry.AddHistogram("mutex.serve.queue.wait_us", bounds,
                              "admission-queue mutex wait (us)"),
        &recorder);
    if (engine != nullptr) {
      // Per-shard latch/stripe waits: the whole point of sharding is
      // that these stay flat as workers grow, so they are individually
      // observable.
      for (size_t s = 0; s < engine->num_shards(); ++s) {
        auto latch = std::make_unique<obs::MutexWaitBinding>();
        latch->Bind(engine->mutable_pool()->shard(s)->latch_wait_stats(),
                    registry.AddHistogram(
                        StrFormat("mutex.shard%zu.latch.wait_us", s), bounds,
                        "shard pool policy-latch wait (us)"),
                    &recorder);
        shard_bindings.push_back(std::move(latch));
        auto stripe = std::make_unique<obs::MutexWaitBinding>();
        stripe->Bind(engine->mutable_pool()->shard(s)->stripe_wait_stats(),
                     registry.AddHistogram(
                         StrFormat("mutex.shard%zu.stripe.wait_us", s),
                         bounds, "shard page-table stripe wait (us)"),
                     &recorder);
        shard_bindings.push_back(std::move(stripe));
      }
    } else {
      latch_binding.Bind(
          server.mutable_pool()->latch_wait_stats(),
          registry.AddHistogram("mutex.pool.latch.wait_us", bounds,
                                "pool policy-latch wait (us)"),
          &recorder);
      stripe_binding.Bind(
          server.mutable_pool()->stripe_wait_stats(),
          registry.AddHistogram("mutex.pool.stripe.wait_us", bounds,
                                "page-table stripe wait (us)"),
          &recorder);
    }
  }
  server.Start();

  std::printf("serving: %zu workers, %zu users, queue depth %zu, "
              "%s/%s%s, %zu buffer pages, %zu shard(s), %u us/read\n",
              options.num_threads, args.users, options.queue_depth,
              args.baf ? "BAF" : "DF", buffer::PolicyKindName(policy),
              args.shared_context ? " (shared ctx)" : "", args.buffers,
              args.shards, args.delay_us);

  const auto start = std::chrono::steady_clock::now();
  std::vector<std::thread> clients;
  std::atomic<bool> failed{false};
  for (size_t u = 0; u < args.users; ++u) {
    clients.emplace_back([&, u] {
      const workload::RefinementSequence& seq = sequences[u % sequences.size()];
      for (size_t loop = 0; loop < args.loops; ++loop) {
        for (const workload::RefinementStep& step : seq.steps) {
          auto r = server.Execute(u, step.query);
          if (!r.ok()) {
            // Typed overload outcomes are the server keeping its
            // latency promise, not a client error.
            if (r.status().code() == StatusCode::kShedWhileQueued ||
                r.status().code() == StatusCode::kResourceExhausted) {
              continue;
            }
            std::fprintf(stderr, "user %zu: %s\n", u,
                         r.status().ToString().c_str());
            failed = true;
            return;
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
  if (injector != nullptr) {
    corpus.index().disk().SetFaultInjector(nullptr);
    if (engine != nullptr) {
      for (size_t s = 0; s < sharded_index.num_shards(); ++s) {
        sharded_index.shard(s).disk().SetFaultInjector(nullptr);
      }
    }
  }
  if (failed) return 1;

  const serve::ServerStats stats = server.StatsSnapshot();
  const buffer::BufferStats pool = server.PoolStatsSnapshot();
  const obs::Histogram* latency = registry.FindHistogram("serve.latency_us");
  std::printf("completed    : %llu queries in %.3f s (%.1f q/s)\n",
              static_cast<unsigned long long>(stats.completed), wall,
              wall > 0.0 ? static_cast<double>(stats.completed) / wall : 0.0);
  std::printf("latency      : p50 %.2f ms, p90 %.2f ms, p99 %.2f ms\n",
              latency->Percentile(50.0) / 1000.0,
              latency->Percentile(90.0) / 1000.0,
              latency->Percentile(99.0) / 1000.0);
  std::printf("buffer pool  : %.1f%% hits, %llu disk reads, %llu evictions\n",
              pool.HitRate() * 100.0,
              static_cast<unsigned long long>(pool.misses),
              static_cast<unsigned long long>(pool.evictions));
  if (args.prefetch_depth > 0) {
    serve::PoolPrefetchStats prefetch;
    if (engine != nullptr) {
      for (size_t s = 0; s < engine->num_shards(); ++s) {
        const serve::PoolPrefetchStats ps =
            engine->mutable_pool()->shard(s)->PrefetchStatsSnapshot();
        prefetch.issued += ps.issued;
        prefetch.used += ps.used;
        prefetch.wasted += ps.wasted;
        prefetch.dropped += ps.dropped;
        prefetch.coalesced_misses += ps.coalesced_misses;
        prefetch.device_reads += ps.device_reads;
      }
    } else {
      prefetch = server.mutable_pool()->PrefetchStatsSnapshot();
    }
    std::printf("prefetch     : %llu issued (%llu used, %llu wasted), "
                "%llu hints dropped, %llu coalesced misses, "
                "%llu device reads\n",
                static_cast<unsigned long long>(prefetch.issued),
                static_cast<unsigned long long>(prefetch.used),
                static_cast<unsigned long long>(prefetch.wasted),
                static_cast<unsigned long long>(prefetch.dropped),
                static_cast<unsigned long long>(prefetch.coalesced_misses),
                static_cast<unsigned long long>(prefetch.device_reads));
  }
  if (engine != nullptr) {
    AsciiTable shard_table({"shard", "fetches", "hit%", "reads", "evict"});
    for (size_t s = 0; s < engine->num_shards(); ++s) {
      const buffer::BufferStats stats =
          engine->mutable_pool()->shard(s)->StatsSnapshot();
      shard_table.AddRow(
          {StrFormat("%zu", s),
           StrFormat("%llu", static_cast<unsigned long long>(stats.fetches)),
           StrFormat("%.1f", stats.HitRate() * 100.0),
           StrFormat("%llu", static_cast<unsigned long long>(stats.misses)),
           StrFormat("%llu",
                     static_cast<unsigned long long>(stats.evictions))});
    }
    std::printf("%s", shard_table.ToString().c_str());
  }
  auto counter = [&](const std::string& name) -> unsigned long long {
    return registry.CounterValue(name).value_or(0);
  };
  if (injector != nullptr || options.deadline_us > 0) {
    std::printf("resilience   : %llu retries (%llu recovered), "
                "%llu corrupted reads, %llu breaker trips, "
                "%llu degraded, %llu deadline-cut\n",
                counter("fault.retries"), counter("fault.retry_success"),
                counter("fault.corrupted_reads"),
                counter("fault.breaker_trips"), counter("serve.degraded"),
                counter("serve.deadline_exceeded"));
    if (engine != nullptr) {
      unsigned long long trips = 0;
      unsigned long long rejects = 0;
      for (size_t s = 0; s < engine->num_shards(); ++s) {
        trips += counter(StrFormat("shard%zu.breaker.trips", s));
        rejects += counter(StrFormat("shard%zu.breaker.rejects", s));
      }
      std::printf("shards       : %llu forfeited mid-query, "
                  "%llu breaker trips, %llu fail-fast rejects\n",
                  counter("engine.shards_lost"), trips, rejects);
    }
  }
  if (args.overload) {
    // The admission/queued split: bounces never entered the queue,
    // sheds did but had no budget left at pickup; neither is in the
    // latency percentiles above.
    std::printf("overload     : %llu rejected at admission, "
                "%llu shed while queued, brownout trims %llu terms / "
                "%llu pages\n",
                counter("serve.rejected_at_admission"),
                counter("serve.shed_while_queued"),
                counter("serve.brownout_trim_terms"),
                counter("serve.brownout_trim_pages"));
  }
  AsciiTable table({"session", "queries", "reads", "pages"});
  for (size_t u = 0; u < args.users; ++u) {
    const serve::SessionStats s = server.SessionSnapshot(u);
    table.AddRow({StrFormat("%zu", u), StrFormat("%llu",
                      static_cast<unsigned long long>(s.queries)),
                  StrFormat("%llu",
                      static_cast<unsigned long long>(s.disk_reads)),
                  StrFormat("%llu", static_cast<unsigned long long>(
                                        s.pages_processed))});
  }
  std::printf("%s", table.ToString().c_str());

  std::string attribution_json;
  if (spans) {
    const std::vector<obs::ThreadSpans> snapshot = recorder.Snapshot();
    if (!WriteJsonFile(args.trace_spans, obs::ToChromeTraceJson(snapshot),
                       "trace")) {
      return 1;
    }
    const obs::SpanAttribution attr = obs::ComputeAttribution(snapshot);
    obs::JsonWriter aw;
    obs::AppendAttributionJson(attr, aw);
    attribution_json = std::move(aw).Take();
    size_t record_count = 0;
    for (const obs::ThreadSpans& t : snapshot) {
      record_count += t.spans.size();
    }
    std::printf("records      : %zu from %zu threads -> %s "
                "(open in ui.perfetto.dev)\n",
                record_count, snapshot.size(), args.trace_spans.c_str());
    uint64_t latch_wait_ns = 0;
    if (engine != nullptr) {
      for (size_t s = 0; s < engine->num_shards(); ++s) {
        latch_wait_ns += engine->mutable_pool()
                             ->shard(s)
                             ->latch_wait_stats()
                             ->wait_ns_total();
      }
    } else {
      latch_wait_ns =
          server.mutable_pool()->latch_wait_stats()->wait_ns_total();
    }
    std::printf("latch wait   : %s of aggregate worker time "
                "(pool policy latch%s)\n",
                StrFormat("%.2f%%",
                          100.0 * static_cast<double>(latch_wait_ns) / 1e9 /
                              (wall * static_cast<double>(std::max<size_t>(
                                          1, options.num_threads))))
                    .c_str(),
                engine != nullptr ? "es, all shards" : "");
  }

  if (!args.telemetry.empty()) {
    obs::JsonWriter w;
    w.BeginObject();
    w.Key("command").Str("serve");
    w.Key("workers").UInt(options.num_threads);
    w.Key("users").UInt(args.users);
    w.Key("shards").UInt(args.shards);
    w.Key("wall_seconds").Num(wall);
    w.Key("completed").UInt(stats.completed);
    w.Key("rejected").UInt(stats.rejected);
    if (!attribution_json.empty()) {
      w.Key("attribution").Raw(attribution_json);
    }
    w.Key("metrics").Raw(registry.ToJson());
    w.EndObject();
    if (!WriteJsonFile(args.telemetry, std::move(w).Take())) return 1;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) return Usage();

  if (args.command == "generate") return Generate(args);

  if (args.file.empty()) return Usage();
  auto corpus = corpus::LoadCorpus(args.file);
  if (!corpus.ok()) {
    std::fprintf(stderr, "cannot load %s: %s\n", args.file.c_str(),
                 corpus.status().ToString().c_str());
    return 1;
  }
  auto policy = buffer::ParsePolicyKind(args.policy);
  if (!policy.ok()) {
    std::fprintf(stderr, "%s\n", policy.status().ToString().c_str());
    return 2;
  }

  if (args.command == "stats") return Stats(*corpus.value());
  if (args.command == "topics") return Topics(*corpus.value());
  if (args.command == "query") {
    return RunQuery(*corpus.value(), args, policy.value());
  }
  if (args.command == "refine") {
    return Refine(*corpus.value(), args, policy.value());
  }
  if (args.command == "serve") {
    return Serve(*corpus.value(), args, policy.value());
  }
  return Usage();
}
