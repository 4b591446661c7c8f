// Microbenchmarks (google-benchmark) for the hot paths underneath the
// reproduction: stemming, posting compression, buffer-manager fetches per
// policy, accumulator updates and top-n selection. These quantify the
// constant factors behind the simulator's CPU-cost metric.

#include <benchmark/benchmark.h>

#include <unordered_map>

#include "buffer/policy_factory.h"
#include "core/accumulator_set.h"
#include "core/top_n.h"
#include "index/index_builder.h"
#include "obs/span.h"
#include "serve/concurrent_buffer_pool.h"
#include "storage/codec.h"
#include "text/porter_stemmer.h"
#include "text/tokenizer.h"
#include "util/mutex.h"
#include "util/rng.h"
#include "util/zipf.h"

namespace irbuf {
namespace {

const char* kWords[] = {
    "computers",   "computing",     "increases",  "investment",
    "american",    "stockmarkets",  "relational", "conditional",
    "hesitancy",   "formalization", "electrical", "adjustment",
    "gyroscopic",  "dependable",    "insulation", "manufacturing",
};

void BM_PorterStem(benchmark::State& state) {
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        text::PorterStem(kWords[i++ % std::size(kWords)]));
  }
}
BENCHMARK(BM_PorterStem);

void BM_Tokenize(benchmark::State& state) {
  std::string input;
  for (int i = 0; i < 50; ++i) {
    input += "Drastic price increases hit American stock markets in 1987; ";
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(text::TokenizeAll(input));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(input.size()));
}
BENCHMARK(BM_Tokenize);

std::vector<Posting> MakePagePostings(size_t n) {
  Pcg32 rng(5);
  TruncatedGeometric freq(0.55, 30);
  std::vector<Posting> postings;
  for (size_t i = 0; i < n; ++i) {
    postings.push_back(
        Posting{static_cast<DocId>(i * 7 + 3), freq.Sample(&rng)});
  }
  std::sort(postings.begin(), postings.end(),
            [](const Posting& a, const Posting& b) {
              if (a.freq != b.freq) return a.freq > b.freq;
              return a.doc < b.doc;
            });
  return postings;
}

void BM_EncodePostings(benchmark::State& state) {
  auto postings = MakePagePostings(404);
  for (auto _ : state) {
    benchmark::DoNotOptimize(storage::EncodePostings(postings));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * 404);
}
BENCHMARK(BM_EncodePostings);

// Decode A/B: the scalar allocate-per-page decoder the codebase started
// with versus the bulk block decoder the evaluators now consume.
void BM_DecodePostings_legacy(benchmark::State& state) {
  auto image = storage::EncodePostings(MakePagePostings(404));
  for (auto _ : state) {
    benchmark::DoNotOptimize(storage::DecodePostings(image));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * 404);
  state.SetLabel("legacy/BM_DecodePostings");
}
BENCHMARK(BM_DecodePostings_legacy);

void BM_DecodePostings_block(benchmark::State& state) {
  auto image = storage::EncodePostings(MakePagePostings(404));
  storage::PostingBlock block;
  for (auto _ : state) {
    if (!storage::DecodePostingsInto(image, &block).ok()) std::abort();
    benchmark::DoNotOptimize(block.doc_ids.data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * 404);
  state.SetLabel("block/BM_DecodePostings");
}
BENCHMARK(BM_DecodePostings_block);

// Accumulator A/B: the unordered_map the evaluators used before the
// open-addressing table, same find-or-insert-then-add stream.
void BM_AccumulatorUpdates_legacy(benchmark::State& state) {
  Pcg32 rng(7);
  std::vector<DocId> docs(10000);
  for (DocId& d : docs) d = rng.NextBounded(100000);
  for (auto _ : state) {
    std::unordered_map<DocId, double> acc;
    for (DocId d : docs) {
      auto [it, inserted] = acc.try_emplace(d, 0.0);
      it->second += 1.5;
    }
    benchmark::DoNotOptimize(acc.size());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(docs.size()));
  state.SetLabel("legacy/BM_AccumulatorUpdates");
}
BENCHMARK(BM_AccumulatorUpdates_legacy);

void BM_AccumulatorUpdates_block(benchmark::State& state) {
  Pcg32 rng(7);
  std::vector<DocId> docs(10000);
  for (DocId& d : docs) d = rng.NextBounded(100000);
  for (auto _ : state) {
    core::AccumulatorSet acc;
    for (DocId d : docs) {
      acc.FindOrInsert(d) += 1.5;
    }
    benchmark::DoNotOptimize(acc.size());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(docs.size()));
  state.SetLabel("block/BM_AccumulatorUpdates");
}
BENCHMARK(BM_AccumulatorUpdates_block);

const index::InvertedIndex& MicroIndex() {
  static index::InvertedIndex* index = [] {
    index::IndexBuilderOptions options;
    options.page_size = 404;
    options.num_docs = 100000;
    index::IndexBuilder builder(options);
    Pcg32 rng(11);
    TruncatedGeometric freq(0.55, 30);
    for (int t = 0; t < 8; ++t) {
      std::vector<Posting> postings;
      for (DocId d : SampleDistinct(100000, 8080, &rng)) {
        postings.push_back(Posting{d, freq.Sample(&rng)});
      }
      auto id = builder.AddTermPostings("term" + std::to_string(t),
                                        std::move(postings));
      if (!id.ok()) std::abort();
    }
    auto built = std::move(builder).Build();
    if (!built.ok()) std::abort();
    return new index::InvertedIndex(std::move(built).value());
  }();
  return *index;
}

void BM_BufferFetch(benchmark::State& state) {
  const index::InvertedIndex& index = MicroIndex();
  auto kind = static_cast<buffer::PolicyKind>(state.range(0));
  serve::ConcurrentBufferPool pool(&index.disk(),
                                   serve::PoolOptions(64, kind));
  buffer::QueryContext ctx;
  for (TermId t = 0; t < 8; ++t) ctx.SetWeight(t, 1.0 + t);
  pool.SetQueryContext(std::move(ctx));
  Pcg32 rng(13);
  for (auto _ : state) {
    TermId term = rng.NextBounded(8);
    uint32_t page = rng.NextBounded(index.lexicon().info(term).pages);
    // The guard unpins at the end of the iteration, as an evaluator's
    // does before its next fetch.
    benchmark::DoNotOptimize(pool.FetchPinned(PageId{term, page}));
  }
  state.SetLabel(buffer::PolicyKindName(kind));
}
BENCHMARK(BM_BufferFetch)
    ->Arg(static_cast<int>(buffer::PolicyKind::kLru))
    ->Arg(static_cast<int>(buffer::PolicyKind::kMru))
    ->Arg(static_cast<int>(buffer::PolicyKind::kRap))
    ->Arg(static_cast<int>(buffer::PolicyKind::kLruK))
    ->Arg(static_cast<int>(buffer::PolicyKind::kTwoQ))
    ->Arg(static_cast<int>(buffer::PolicyKind::kClock))
    ->Arg(static_cast<int>(buffer::PolicyKind::kFifo));

// Span-tracing cost pair: the disabled path (null recorder — what every
// hot-path site pays when tracing is off, one branch in and one out)
// versus full recording. The disabled number is the one the
// "instrumentation off is free" contract rides on.
void BM_SpanScope_disabled(benchmark::State& state) {
  obs::SpanRecorder* recorder = nullptr;
  for (auto _ : state) {
    obs::ScopedSpan span(recorder, obs::SpanStage::kPagePin, 1);
    benchmark::DoNotOptimize(recorder);
  }
  state.SetLabel("disabled/BM_SpanScope");
}
BENCHMARK(BM_SpanScope_disabled);

void BM_SpanScope_enabled(benchmark::State& state) {
  obs::SpanRecorder recorder;
  recorder.SetCurrentQuery(7);
  uint64_t n = 0;
  for (auto _ : state) {
    obs::ScopedSpan span(&recorder, obs::SpanStage::kPagePin, 1);
    benchmark::DoNotOptimize(n);
    // Bound the recorder's memory: a long benchmark run would otherwise
    // retain every span. The amortized clear cost is in the noise.
    if ((++n & 0xFFFF) == 0) recorder.Clear();
  }
  state.SetLabel("enabled/BM_SpanScope");
}
BENCHMARK(BM_SpanScope_enabled);

// Mutex-profiling cost pair: a plain (seed-equivalent) lock/unlock
// versus one with contention tracking attached, uncontended — the
// try_lock + relaxed counter the instrumented fast path adds. Waits are
// only timed when the lock actually blocks, which an uncontended
// single-thread loop never does, so no clock reads happen here.
void BM_MutexLock_plain(benchmark::State& state) {
  Mutex mu;
  for (auto _ : state) {
    mu.Lock();
    mu.Unlock();
  }
  state.SetLabel("plain/BM_MutexLock");
}
BENCHMARK(BM_MutexLock_plain);

void BM_MutexLock_profiled(benchmark::State& state) {
  Mutex mu;
  MutexWaitStats stats("bench.mutex");
  mu.TrackContention(&stats);
  for (auto _ : state) {
    mu.Lock();
    mu.Unlock();
  }
  benchmark::DoNotOptimize(stats.acquisitions());
  state.SetLabel("profiled/BM_MutexLock");
}
BENCHMARK(BM_MutexLock_profiled);

void BM_SelectTopN(benchmark::State& state) {
  const index::InvertedIndex& index = MicroIndex();
  Pcg32 rng(17);
  core::AccumulatorSet acc;
  for (int i = 0; i < 50000; ++i) {
    acc.Insert(rng.NextBounded(100000), rng.NextDouble() * 1000.0);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        core::SelectTopN(acc, index, static_cast<uint32_t>(
                                         state.range(0))));
  }
}
BENCHMARK(BM_SelectTopN)->Arg(20)->Arg(200);

}  // namespace
}  // namespace irbuf

BENCHMARK_MAIN();
