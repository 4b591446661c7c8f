// Extension experiment: frequency-sorted vs document-ordered index
// layout (footnote 14: "algorithms that use inverted lists ordered by
// document identifiers can be expected to read most of the inverted list
// pages [Bro95]; those algorithms would perform significantly worse than
// DF here"), plus the Quit/Continue accumulator-limiting heuristics of
// [MZ94] as alternative evaluation strategies.

#include <cstdio>

#include "bench_util.h"
#include "core/quit_continue_evaluator.h"
#include "metrics/effectiveness.h"
#include "serve/concurrent_buffer_pool.h"
#include "util/str.h"

using namespace irbuf;

namespace {

const corpus::SyntheticCorpus& DocOrderedCorpus() {
  static const corpus::SyntheticCorpus* corpus = [] {
    corpus::CorpusOptions options;
    options.scale = corpus::ScaleFromEnv();
    options.list_order = index::ListOrder::kDocumentOrdered;
    options.num_random_topics = std::max<uint32_t>(
        8, static_cast<uint32_t>(96.0 * options.scale));
    const char* env = std::getenv("IRBUF_CACHE_DIR");
    std::string dir = env != nullptr ? env : "./irbuf_cache";
    std::string path =
        dir + StrFormat("/irbuf_corpus_s%.4f_seed42_docord.irbc",
                        options.scale);
    auto result = corpus::LoadOrGenerateCorpus(options, path);
    if (!result.ok()) {
      std::fprintf(stderr, "doc-ordered corpus failed: %s\n",
                   result.status().ToString().c_str());
      std::abort();
    }
    return result.value().release();
  }();
  return *corpus;
}

}  // namespace

int main() {
  bench::PrintHeader(
      "Extension - document-ordered lists (footnote 14) and "
      "Quit/Continue [MZ94]",
      "document-ordered evaluation reads essentially every page of every "
      "query term; frequency-sorted DF skips most of them");

  const corpus::SyntheticCorpus& freq_corpus = bench::GetCorpus();
  const corpus::SyntheticCorpus& doc_corpus = DocOrderedCorpus();

  // --- Footnote 14: same designed queries, both layouts, tuned DF. ---
  AsciiTable layout_table({"query", "pages", "freq-sorted reads",
                           "doc-ordered reads", "doc-ordered/total"});
  for (int qi = 0; qi < 4; ++qi) {
    core::EvalOptions tuned;
    auto freq = ir::RunColdQuery(freq_corpus.index(),
                                 freq_corpus.topics()[qi].query, tuned);
    auto doc = ir::RunColdQuery(doc_corpus.index(),
                                doc_corpus.topics()[qi].query, tuned);
    if (!freq.ok() || !doc.ok()) return 1;
    uint64_t pages = ir::TotalQueryPages(doc_corpus.index(),
                                         doc_corpus.topics()[qi].query);
    layout_table.AddRow({
        StrFormat("QUERY%d", qi + 1),
        StrFormat("%llu", static_cast<unsigned long long>(pages)),
        StrFormat("%llu",
                  static_cast<unsigned long long>(freq.value().disk_reads)),
        StrFormat("%llu",
                  static_cast<unsigned long long>(doc.value().disk_reads)),
        bench::Percent(static_cast<double>(doc.value().disk_reads) /
                       static_cast<double>(pages)),
    });
  }
  std::printf("%s", layout_table.ToString().c_str());
  std::printf("(the paper's conjecture: document-ordered algorithms read "
              "most pages — the last column should be near 100%%)\n\n");

  // --- Quit/Continue vs DF on the frequency-sorted index. ---
  bench::PrintHeader(
      "Quit/Continue accumulator limiting vs DF thresholds",
      "[MZ94] bounds memory directly; DF bounds it via c_ins. Compare "
      "reads, accumulators and answer overlap at equal budgets");

  const auto& topics = freq_corpus.topics();
  const size_t kTopics = std::min<size_t>(10, topics.size());

  AsciiTable qc_table({"strategy", "avg reads", "avg accumulators",
                       "avg top-20 overlap vs safe baseline"});
  struct Strategy {
    const char* label;
    bool is_df;
    core::LimitMode mode;
    size_t limit;
  };
  const Strategy strategies[] = {
      {"DF (0.07/0.002)", true, core::LimitMode::kQuit, 0},
      {"Quit L=1000", false, core::LimitMode::kQuit, 1000},
      {"Quit L=5000", false, core::LimitMode::kQuit, 5000},
      {"Continue L=1000", false, core::LimitMode::kContinue, 1000},
      {"Continue L=5000", false, core::LimitMode::kContinue, 5000},
  };

  // Safe-baseline answers for overlap measurement.
  std::vector<std::vector<core::ScoredDoc>> gold(kTopics);
  for (size_t ti = 0; ti < kTopics; ++ti) {
    core::EvalOptions full;
    full.c_ins = 0.0;
    full.c_add = 0.0;
    auto r = ir::RunColdQuery(freq_corpus.index(), topics[ti].query, full);
    if (!r.ok()) return 1;
    gold[ti] = r.value().top_docs;
  }

  for (const Strategy& s : strategies) {
    double reads = 0.0, accs = 0.0, overlap = 0.0;
    for (size_t ti = 0; ti < kTopics; ++ti) {
      core::EvalResult er;
      if (s.is_df) {
        core::EvalOptions tuned;
        auto r = ir::RunColdQuery(freq_corpus.index(), topics[ti].query,
                                  tuned);
        if (!r.ok()) return 1;
        er = std::move(r).value();
      } else {
        core::QuitContinueOptions options;
        options.mode = s.mode;
        options.accumulator_limit = s.limit;
        core::QuitContinueEvaluator evaluator(&freq_corpus.index(),
                                              options);
        serve::ConcurrentBufferPool pool(
            &freq_corpus.index().disk(),
            serve::PoolOptions(
                ir::TotalQueryPages(freq_corpus.index(), topics[ti].query) +
                1));
        auto r = evaluator.Evaluate(topics[ti].query, &pool);
        if (!r.ok()) return 1;
        er = std::move(r).value();
      }
      reads += static_cast<double>(er.disk_reads);
      accs += static_cast<double>(er.accumulators);
      size_t hits = 0;
      for (const core::ScoredDoc& a : er.top_docs) {
        for (const core::ScoredDoc& b : gold[ti]) {
          if (a.doc == b.doc) {
            ++hits;
            break;
          }
        }
      }
      overlap += gold[ti].empty()
                     ? 1.0
                     : static_cast<double>(hits) /
                           static_cast<double>(gold[ti].size());
    }
    double n = static_cast<double>(kTopics);
    qc_table.AddRow({
        s.label,
        StrFormat("%.0f", reads / n),
        StrFormat("%.0f", accs / n),
        bench::Percent(overlap / n),
    });
  }
  std::printf("%s", qc_table.ToString().c_str());
  std::printf("(Continue reads everything but caps memory; Quit saves "
              "I/O at a steep effectiveness cost; DF's thresholds get "
              "both, which is the paper's starting point)\n");
  return 0;
}
