// Hot-path A/B microbench: the two inner loops every figure in the
// paper is bounded by — decode a compressed posting page, then
// probe/update an accumulator per posting — measured side by side in
// their pre-rewrite (`legacy/`) and block (`block/`) forms:
//
//   BM_BlockDecode        page image -> postings, scalar AoS vs
//                         PostingBlock bulk decode into reused buffers
//   BM_AccumulatorProbe   probe/update mix over a warmed candidate set,
//                         std::unordered_map vs open-addressing table
//   BM_AccumulatorAddProbe DF add-mode stream: ~450 candidates among
//                         173,252 docs, ~97% of probes miss;
//                         unordered_map::find vs bitmap-fronted FindOrNull
//   BM_EvalDFQuery        full DF evaluation kernel per topic query
//                         (thresholds, smax, ins/add/drop) over cached
//                         pages — per-posting AoS loop vs per-run SoA
//   BM_EvalBAFQuery       same kernel under BAF's fewest-reads term
//                         ordering (conversion-table estimates)
//   BM_BufferFetchDecoded buffer-hit path: pin a resident page and read
//                         one posting from its decoded block (block
//                         path only — hits always hand decoded data)
//
// The legacy variants transplant the exact pre-rewrite loops (scalar
// VByteDecode into std::vector<Posting>, per-posting unordered_map
// probe with per-posting weight multiply); the evaluation kernels run
// from in-memory pages in both variants, so the A/B isolates the
// kernel and neither side pays fetch or I/O cost.
//
// Machine-readable output: bench_results/bench_hotpath.json (shared
// TelemetryFile schema; one run object per variant). tools/bench/
// ab_compare.py diffs the legacy//block/ pairs and two such files.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <unordered_map>
#include <vector>

#include "bench_util.h"
#include "buffer/policy_factory.h"
#include "core/accumulator_set.h"
#include "core/scorer.h"
#include "index/conversion_table.h"
#include "serve/concurrent_buffer_pool.h"
#include "util/rng.h"
#include "util/str.h"

using namespace irbuf;

namespace {

/// Defeats dead-code elimination without google-benchmark: everything a
/// kernel computes folds into this sink, printed at the end.
uint64_t g_sink = 0;

/// Median-free steady-state timer: warms up, then grows the batch size
/// until one timed batch covers `min_time_s`, and reports ns per op.
template <typename Fn>
double MeasureNsPerOp(Fn&& fn, double min_time_s = 0.25) {
  using Clock = std::chrono::steady_clock;
  fn();
  fn();  // Warm-up: touch caches, fault in pages, grow tables.
  uint64_t iters = 1;
  while (true) {
    const auto start = Clock::now();
    for (uint64_t i = 0; i < iters; ++i) fn();
    const double elapsed =
        std::chrono::duration<double>(Clock::now() - start).count();
    if (elapsed >= min_time_s || iters > (1ull << 40)) {
      return elapsed * 1e9 / static_cast<double>(iters);
    }
    if (elapsed <= 0.0) {
      iters *= 64;
    } else {
      // Aim 40% past the target so the next batch usually suffices.
      const double scale = 1.4 * min_time_s / elapsed;
      iters = static_cast<uint64_t>(static_cast<double>(iters) * scale) + 1;
    }
  }
}

std::string RunJson(const std::string& label, double ns_per_op,
                    uint64_t items_per_op) {
  const double ns_per_item =
      items_per_op > 0 ? ns_per_op / static_cast<double>(items_per_op)
                       : ns_per_op;
  return StrFormat(
      "{\"label\":\"%s\",\"ns_per_op\":%.2f,\"items_per_op\":%llu,"
      "\"ns_per_item\":%.4f,\"mitems_per_sec\":%.2f}",
      label.c_str(), ns_per_op,
      static_cast<unsigned long long>(items_per_op), ns_per_item,
      ns_per_item > 0.0 ? 1e3 / ns_per_item : 0.0);
}

void Report(bench::TelemetryFile* out, const std::string& name,
            double legacy_ns, double block_ns, uint64_t items) {
  std::printf("  %-22s legacy %10.1f ns/op   block %10.1f ns/op   "
              "speedup %.2fx\n",
              name.c_str(), legacy_ns, block_ns, legacy_ns / block_ns);
  out->AddRaw(RunJson("legacy/" + name, legacy_ns, items));
  out->AddRaw(RunJson("block/" + name, block_ns, items));
}

// --- BM_BlockDecode ---------------------------------------------------

void BenchBlockDecode(bench::TelemetryFile* out) {
  const corpus::SyntheticCorpus& corpus = bench::GetCorpus();
  const storage::SimulatedDisk& disk = corpus.index().disk();
  // Real page images from the longest inverted lists: the byte stream
  // the decoder sees in production, single-byte gaps dominating.
  std::vector<const std::vector<uint8_t>*> images;
  uint64_t postings = 0;
  for (TermId t = 0;
       t < corpus.index().lexicon().size() && images.size() < 64; ++t) {
    const index::TermInfo& info = corpus.index().lexicon().info(t);
    if (info.pages < 2) continue;
    for (uint32_t p = 0; p < info.pages && images.size() < 64; ++p) {
      auto image = disk.PageImage(PageId{t, p});
      if (!image.ok()) std::abort();
      images.push_back(image.value());
    }
  }
  if (images.empty()) std::abort();
  {
    storage::PostingBlock probe;
    for (const auto* image : images) {
      if (!storage::DecodePostingsInto(*image, &probe).ok()) std::abort();
      postings += probe.size();
    }
  }

  const double legacy_ns = MeasureNsPerOp([&images] {
    for (const auto* image : images) {
      auto decoded = storage::DecodePostings(*image);
      if (!decoded.ok()) std::abort();
      g_sink += decoded.value().size();
    }
  });
  storage::PostingBlock block;
  const double block_ns = MeasureNsPerOp([&images, &block] {
    for (const auto* image : images) {
      if (!storage::DecodePostingsInto(*image, &block).ok()) std::abort();
      g_sink += block.size();
    }
  });
  Report(out, "BM_BlockDecode", legacy_ns, block_ns, postings);
}

// --- BM_AccumulatorProbe ----------------------------------------------

void BenchAccumulatorProbe(bench::TelemetryFile* out) {
  // The probe stream a posting loop issues: skewed doc ids, ~2/3 hits
  // against a warmed candidate set, misses inserting new candidates.
  Pcg32 rng(42);
  std::vector<DocId> warm(20000);
  for (DocId& d : warm) d = rng.NextBounded(60000);
  std::vector<DocId> stream(50000);
  for (DocId& d : stream) d = rng.NextBounded(90000);

  const double legacy_ns = MeasureNsPerOp([&warm, &stream] {
    std::unordered_map<DocId, double> acc;
    for (DocId d : warm) acc.emplace(d, 1.0);
    for (DocId d : stream) {
      auto it = acc.find(d);
      if (it == acc.end()) it = acc.emplace(d, 0.0).first;
      it->second += 1.5;
    }
    g_sink += acc.size();
  });
  const double block_ns = MeasureNsPerOp([&warm, &stream] {
    core::AccumulatorSet acc;
    for (DocId d : warm) acc.Insert(d, 1.0);
    for (DocId d : stream) acc.FindOrInsert(d) += 1.5;
    g_sink += acc.size();
  });
  Report(out, "BM_AccumulatorProbe", legacy_ns, block_ns,
         warm.size() + stream.size());
}

// --- BM_AccumulatorAddProbe -------------------------------------------

void BenchAccumulatorAddProbe(bench::TelemetryFile* out) {
  // What DF's add mode sees once the insertion threshold has cut the
  // candidate set: a few hundred candidates among every document of the
  // full-scale collection, and a posting stream that mostly misses them.
  constexpr uint32_t kNumDocs = 173252;
  Pcg32 rng(7);
  std::vector<DocId> members(450);
  for (DocId& d : members) d = rng.NextBounded(kNumDocs);
  std::vector<DocId> stream(36000);
  for (DocId& d : stream) {
    d = rng.NextBounded(100) < 3
            ? members[rng.NextBounded(static_cast<uint32_t>(members.size()))]
            : rng.NextBounded(kNumDocs);
  }

  std::unordered_map<DocId, double> map;
  for (DocId d : members) map.emplace(d, 1.0);
  const double legacy_ns = MeasureNsPerOp([&map, &stream] {
    for (DocId d : stream) {
      auto it = map.find(d);
      if (it != map.end()) it->second += 1.5;
    }
    g_sink += map.size();
  });
  core::AccumulatorSet acc;
  for (DocId d : members) acc.Insert(d, 1.0);
  const double block_ns = MeasureNsPerOp([&acc, &stream] {
    for (DocId d : stream) {
      if (double* a = acc.FindOrNull(d)) *a += 1.5;
    }
    g_sink += acc.size();
  });
  Report(out, "BM_AccumulatorAddProbe", legacy_ns, block_ns, stream.size());
}

// --- BM_EvalDFQuery / BM_EvalBAFQuery ---------------------------------

/// Cached in-memory pages of every term the topic queries touch, in
/// both representations, plus the lexicon stats the kernels consume.
struct EvalFixture {
  struct TermPages {
    TermId term = 0;
    uint32_t fq = 0;
    index::TermInfo info;
    std::vector<std::vector<Posting>> aos;
    const std::vector<storage::PostingBlock>* soa = nullptr;
  };
  // Per topic, terms pre-sorted in DF's decreasing-idf order.
  std::vector<std::vector<TermPages>> topics;
  uint64_t total_postings = 0;
};

EvalFixture BuildEvalFixture() {
  const corpus::SyntheticCorpus& corpus = bench::GetCorpus();
  const index::InvertedIndex& index = corpus.index();
  static std::unordered_map<TermId, std::vector<storage::PostingBlock>>
      soa_cache;
  EvalFixture fx;
  for (const corpus::Topic& topic : corpus.topics()) {
    std::vector<EvalFixture::TermPages> terms;
    for (const core::QueryTerm& qt : topic.query.terms()) {
      EvalFixture::TermPages tp;
      tp.term = qt.term;
      tp.fq = qt.fq;
      tp.info = index.lexicon().info(qt.term);
      auto [it, fresh] = soa_cache.try_emplace(qt.term);
      for (uint32_t p = 0; p < tp.info.pages; ++p) {
        storage::Page page;
        if (!index.disk().ReadPage(PageId{qt.term, p}, &page).ok()) {
          std::abort();
        }
        if (fresh) it->second.push_back(page.block);
        tp.aos.push_back(page.MaterializePostings());
        fx.total_postings += page.block.size();
      }
      tp.soa = &it->second;
      terms.push_back(std::move(tp));
    }
    std::sort(terms.begin(), terms.end(),
              [](const EvalFixture::TermPages& a,
                 const EvalFixture::TermPages& b) {
                if (a.info.idf != b.info.idf) return a.info.idf > b.info.idf;
                if (a.info.pages != b.info.pages) {
                  return a.info.pages < b.info.pages;
                }
                return a.term < b.term;
              });
    fx.topics.push_back(std::move(terms));
  }
  return fx;
}

constexpr double kCIns = 0.07;
constexpr double kCAdd = 0.002;

/// The pre-rewrite ProcessTerm inner loop, verbatim: per-posting AoS
/// iteration, per-posting weight multiply, unordered_map probes.
void LegacyTermKernel(const EvalFixture::TermPages& tp,
                      std::unordered_map<DocId, double>* acc,
                      double* smax) {
  const core::Thresholds th =
      core::ComputeThresholds(kCIns, kCAdd, *smax, tp.fq, tp.info.idf);
  if (static_cast<double>(tp.info.fmax) <= th.f_add) return;
  const double wq = core::QueryTermWeight(tp.fq, tp.info.idf);
  bool stop = false;
  for (const std::vector<Posting>& page : tp.aos) {
    if (stop) break;
    for (const Posting& p : page) {
      const double f = static_cast<double>(p.freq);
      if (f > th.f_ins) {
        const double partial =
            core::DocTermWeight(p.freq, tp.info.idf) * wq;
        auto [it, inserted] = acc->try_emplace(p.doc, 0.0);
        it->second += partial;
        if (it->second > *smax) *smax = it->second;
      } else if (f > th.f_add) {
        auto it = acc->find(p.doc);
        if (it != acc->end()) {
          it->second += core::DocTermWeight(p.freq, tp.info.idf) * wq;
          if (it->second > *smax) *smax = it->second;
        }
      } else {
        stop = true;
        break;
      }
    }
  }
}

/// The rewritten inner loop: run-granular thresholds, hoisted weight,
/// open-addressing probes over the SoA block.
void BlockTermKernel(const EvalFixture::TermPages& tp,
                     core::AccumulatorSet* acc, double* smax) {
  const core::Thresholds th =
      core::ComputeThresholds(kCIns, kCAdd, *smax, tp.fq, tp.info.idf);
  if (static_cast<double>(tp.info.fmax) <= th.f_add) return;
  const double wq = core::QueryTermWeight(tp.fq, tp.info.idf);
  bool stop = false;
  for (const storage::PostingBlock& block : *tp.soa) {
    if (stop) break;
    for (const storage::PostingRun& run : block.runs) {
      const double f = static_cast<double>(run.freq);
      if (f > th.f_ins) {
        const double partial =
            core::DocTermWeight(run.freq, tp.info.idf) * wq;
        for (uint32_t i = run.begin; i < run.end; ++i) {
          double& a = acc->FindOrInsert(block.doc_ids[i]);
          a += partial;
          if (a > *smax) *smax = a;
        }
      } else if (f > th.f_add) {
        const double partial =
            core::DocTermWeight(run.freq, tp.info.idf) * wq;
        for (uint32_t i = run.begin; i < run.end; ++i) {
          if (double* a = acc->FindOrNull(block.doc_ids[i])) {
            *a += partial;
            if (*a > *smax) *smax = *a;
          }
        }
      } else {
        stop = true;
        break;
      }
    }
  }
}

/// BAF's round structure: each round picks the unprocessed term with
/// the fewest estimated reads (conversion-table p_t at the current
/// Smax; no buffer, so b_t = 0), then runs `kernel` on it.
template <typename Kernel>
void BafOrder(const std::vector<EvalFixture::TermPages>& terms,
              const index::ConversionTable& table, double* smax,
              Kernel&& kernel) {
  std::vector<double> cached_smax(terms.size(), -1.0);
  std::vector<uint32_t> pt(terms.size(), 0);
  std::vector<bool> done(terms.size(), false);
  for (size_t round = 0; round < terms.size(); ++round) {
    size_t best = terms.size();
    for (size_t i = 0; i < terms.size(); ++i) {
      if (done[i]) continue;
      const EvalFixture::TermPages& tp = terms[i];
      if (cached_smax[i] != *smax) {
        const double f_add =
            core::ComputeThresholds(kCIns, kCAdd, *smax, tp.fq,
                                    tp.info.idf)
                .f_add;
        pt[i] = table.PagesToProcess(tp.term, f_add, tp.info.pages,
                                     tp.info.fmax);
        cached_smax[i] = *smax;
      }
      if (best == terms.size() || pt[i] < pt[best] ||
          (pt[i] == pt[best] &&
           terms[i].info.idf > terms[best].info.idf)) {
        best = i;
      }
    }
    done[best] = true;
    kernel(terms[best]);
  }
}

void BenchEvalQueries(bench::TelemetryFile* out) {
  const EvalFixture fx = BuildEvalFixture();
  const index::ConversionTable& table =
      bench::GetCorpus().index().conversion_table();

  // DF: static decreasing-idf order (terms are pre-sorted).
  const double df_legacy = MeasureNsPerOp([&fx] {
    for (const auto& terms : fx.topics) {
      std::unordered_map<DocId, double> acc;
      double smax = 0.0;
      for (const auto& tp : terms) LegacyTermKernel(tp, &acc, &smax);
      g_sink += acc.size();
    }
  });
  const double df_block = MeasureNsPerOp([&fx] {
    for (const auto& terms : fx.topics) {
      core::AccumulatorSet acc;
      double smax = 0.0;
      for (const auto& tp : terms) BlockTermKernel(tp, &acc, &smax);
      g_sink += acc.size();
    }
  });
  Report(out, "BM_EvalDFQuery", df_legacy / fx.topics.size(),
         df_block / fx.topics.size(), fx.total_postings);

  // BAF: fewest-estimated-reads order, same kernels.
  const double baf_legacy = MeasureNsPerOp([&fx, &table] {
    for (const auto& terms : fx.topics) {
      std::unordered_map<DocId, double> acc;
      double smax = 0.0;
      BafOrder(terms, table, &smax,
               [&acc, &smax](const EvalFixture::TermPages& tp) {
                 LegacyTermKernel(tp, &acc, &smax);
               });
      g_sink += acc.size();
    }
  });
  const double baf_block = MeasureNsPerOp([&fx, &table] {
    for (const auto& terms : fx.topics) {
      core::AccumulatorSet acc;
      double smax = 0.0;
      BafOrder(terms, table, &smax,
               [&acc, &smax](const EvalFixture::TermPages& tp) {
                 BlockTermKernel(tp, &acc, &smax);
               });
      g_sink += acc.size();
    }
  });
  Report(out, "BM_EvalBAFQuery", baf_legacy / fx.topics.size(),
         baf_block / fx.topics.size(), fx.total_postings);
}

// --- BM_BufferFetchDecoded --------------------------------------------

void BenchBufferFetchDecoded(bench::TelemetryFile* out) {
  const corpus::SyntheticCorpus& corpus = bench::GetCorpus();
  const index::InvertedIndex& index = corpus.index();
  serve::ConcurrentBufferPool pool(&index.disk(), serve::PoolOptions(128));
  // Warm a resident working set smaller than the pool, then measure the
  // pure hit path: pin, read one posting from the decoded block, unpin.
  std::vector<PageId> resident;
  for (TermId t = 0; t < index.lexicon().size() && resident.size() < 96;
       ++t) {
    for (uint32_t p = 0;
         p < index.lexicon().info(t).pages && resident.size() < 96; ++p) {
      resident.push_back(PageId{t, p});
    }
  }
  for (PageId id : resident) {
    if (!pool.FetchPinned(id).ok()) std::abort();
  }
  Pcg32 rng(99);
  std::vector<PageId> sequence(4096);
  for (PageId& id : sequence) {
    id = resident[rng.NextBounded(static_cast<uint32_t>(resident.size()))];
  }
  const double hit_ns = MeasureNsPerOp([&pool, &sequence] {
    for (PageId id : sequence) {
      auto page = pool.FetchPinned(id);
      if (!page.ok()) std::abort();
      g_sink += page.value()->block.doc_ids[0];
    }
  });
  const double per_fetch = hit_ns / static_cast<double>(sequence.size());
  std::printf("  %-22s                          block %10.1f ns/op\n",
              "BM_BufferFetchDecoded", per_fetch);
  out->AddRaw(RunJson("block/BM_BufferFetchDecoded", per_fetch, 1));
}

}  // namespace

int main() {
  bench::PrintHeader(
      "bench_hotpath",
      "A/B of the evaluation hot path: block decode, open-addressing "
      "accumulators, run-granular filtering kernels");
  bench::TelemetryFile out("bench_hotpath");
  BenchBlockDecode(&out);
  BenchAccumulatorProbe(&out);
  BenchAccumulatorAddProbe(&out);
  BenchEvalQueries(&out);
  BenchBufferFetchDecoded(&out);
  out.Close();
  // The telemetry file doubles as the committed A/B baseline, under the
  // name the acceptance gate and ab_compare.py expect.
  const std::string from = bench::ResultsDir() + "/bench_hotpath.telemetry.json";
  const std::string to = bench::ResultsDir() + "/bench_hotpath.json";
  std::rename(from.c_str(), to.c_str());
  std::printf("  sink %llu\n", static_cast<unsigned long long>(g_sink));
  return 0;
}
