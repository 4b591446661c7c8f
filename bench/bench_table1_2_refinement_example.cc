// Reproduces Tables 1 and 2 (the Section 3.2.1 refinement example):
// a five-term query is evaluated and then refined by adding a medium-idf
// term ("invest") while the original inverted lists are still buffered.
// DF processes the new term third (by idf) and reads its pages from disk;
// BAF pushes it to the end of the processing order, where the risen
// thresholds make most of those reads unnecessary.
//
// Paper result: DF reads 37 pages of the new term; BAF reads only 20,
// and all other terms hit buffers.

#include <cstdio>

#include <cmath>

#include "bench_util.h"
#include "core/filtering_evaluator.h"
#include "serve/concurrent_buffer_pool.h"
#include "util/str.h"

using namespace irbuf;

namespace {

// The example's terms: name used by the paper, target idf in our
// calibrated vocabulary, and the within-document frequency character the
// example needs. The paper's Smax trajectory (288 -> 333 -> 591) relies
// on the query's common terms occurring *often* in the top documents
// ("price" dozens of times in an article about price increases), so the
// common-term surrogates are chosen with high fmax; "drastic" provides a
// moderate initial Smax, so its surrogate has a modest fmax.
// `same_topic` terms are drawn from one designed topic so they co-occur
// in its relevant documents; the others come from random topics and stay
// weakly correlated.
struct ExampleTerm {
  const char* name;
  double idf;
  bool high_fmax;
  bool same_topic;
};
constexpr ExampleTerm kOriginal[] = {
    {"stockmarket", 12.01, false, false}, {"drastic", 7.09, false, false},
    {"american", 2.34, true, true},       {"increas", 1.99, true, true},
    {"price", 1.92, true, true},
};
constexpr ExampleTerm kAdded = {"invest", 2.36, true, true};

// Picks a term with idf near `target` from `candidates` (terms of the
// designed topics, which co-occur in relevant documents the way the
// paper's real query terms do). Among the near-idf candidates, prefers
// the highest or lowest fmax as requested.
TermId ClaimTerm(const index::Lexicon& lexicon,
                 const std::vector<TermId>& candidates,
                 const ExampleTerm& spec, std::vector<bool>* used) {
  TermId best = candidates.front();
  double best_score = 1e18;
  for (TermId t : candidates) {
    if ((*used)[t]) continue;
    const index::TermInfo& info = lexicon.info(t);
    double dist = std::abs(info.idf - spec.idf);
    if (dist > 0.45) continue;
    // Idf proximity dominates loosely; fmax preference breaks the rest.
    double fmax_score = spec.high_fmax
                            ? -static_cast<double>(info.fmax)
                            : static_cast<double>(info.fmax);
    double score = dist * 2.0 + fmax_score * 0.1;
    if (score < best_score) {
      best = t;
      best_score = score;
    }
  }
  if (best_score == 1e18) {
    // No candidate inside the window: fall back to nearest idf.
    double best_dist = 1e18;
    for (TermId t : candidates) {
      if ((*used)[t]) continue;
      double dist = std::abs(lexicon.info(t).idf - spec.idf);
      if (dist < best_dist) {
        best = t;
        best_dist = dist;
      }
    }
  }
  (*used)[best] = true;
  return best;
}

void PrintTrace(const char* title, const core::EvalResult& result,
                const std::vector<std::pair<TermId, std::string>>& names) {
  std::printf("\n%s\n", title);
  AsciiTable table({"Term", "idft", "Pages", "Smax", "fins", "fadd",
                    "Proc.", "Read"});
  for (const core::TermTrace& t : result.trace) {
    std::string name;
    for (const auto& [term, alias] : names) {
      if (term == t.term) name = alias;
    }
    table.AddRow({
        name,
        StrFormat("%.2f", t.idf),
        StrFormat("%u", t.total_pages),
        StrFormat("%.1f", t.smax_before),
        StrFormat("%d", static_cast<int>(t.f_ins)),
        StrFormat("%d", static_cast<int>(t.f_add)),
        StrFormat("%u", t.pages_processed),
        StrFormat("%u", t.pages_read),
    });
  }
  std::printf("%s", table.ToString().c_str());
  std::printf("total disk reads for the refined query: %llu\n",
              static_cast<unsigned long long>(result.disk_reads));
}

}  // namespace

int main() {
  const corpus::SyntheticCorpus& corpus = bench::GetCorpus();
  const index::InvertedIndex& index = corpus.index();
  const index::Lexicon& lexicon = index.lexicon();

  bench::PrintHeader(
      "Tables 1-2 - the Section 3.2.1 refinement example (DF vs BAF)",
      "DF reads 37 pages of the added term 'invest'; BAF pushes it back "
      "and reads only 20; every original term hits buffers (0 reads)");

  // Claim example terms by idf from the topics' queries (topic terms
  // co-occur in relevant documents, like the paper's real query terms
  // do), mirroring the paper's idf values. The fmax preference picks
  // strongly-boosted common terms (so Smax grows while they are
  // processed, as in the paper's 288 -> 591 trajectory) and a weakly-
  // boosted "drastic" (so the starting Smax is moderate).
  std::vector<TermId> correlated;  // QUERY4's topic vocabulary.
  for (const core::QueryTerm& qt : corpus.topics()[3].query.terms()) {
    correlated.push_back(qt.term);
  }
  // Background pool: terms outside every topic vocabulary, i.e. with no
  // relevance boosts at all — their fmax is the natural within-document
  // maximum, like the paper's "drastic" (Smax 288.5 after processing it).
  std::vector<bool> in_topic(lexicon.size(), false);
  for (const corpus::Topic& topic : corpus.topics()) {
    for (const core::QueryTerm& qt : topic.query.terms()) {
      in_topic[qt.term] = true;
    }
  }
  std::vector<TermId> background;
  for (TermId t = 0; t < lexicon.size(); ++t) {
    if (!in_topic[t]) background.push_back(t);
  }
  std::vector<bool> used(lexicon.size(), false);
  std::vector<std::pair<TermId, std::string>> names;
  core::Query original;
  for (const ExampleTerm& et : kOriginal) {
    TermId t = ClaimTerm(lexicon, et.same_topic ? correlated : background,
                         et, &used);
    names.emplace_back(t, et.name);
    // The topical common terms carry query frequency 2 (refined queries
    // repeat their central terms, e.g. via relevance feedback); their
    // accumulation is what lifts Smax mid-query, as in the paper's run.
    original.AddTerm(t, et.same_topic ? 2 : 1);
  }
  TermId invest = ClaimTerm(lexicon, correlated, kAdded, &used);
  names.emplace_back(invest, kAdded.name);
  core::Query refined = original;
  refined.AddTerm(invest, 1);

  // The example uses higher tuning constants so thresholds rise quickly
  // on a six-term query (Section 3.2.1, footnote 4; the paper picked
  // 0.2 / 0.02 for its collection — our calibrated collection needs a
  // slightly higher c_add for the same threshold trajectory).
  core::EvalOptions options;
  options.c_ins = 0.2;
  options.c_add = 0.03;

  uint64_t pool_pages = ir::TotalQueryPages(index, refined) + 8;
  for (bool buffer_aware : {false, true}) {
    options.buffer_aware = buffer_aware;
    core::FilteringEvaluator evaluator(&index, options);
    serve::ConcurrentBufferPool pool(&index.disk(),
                                     serve::PoolOptions(pool_pages));
    auto warm = evaluator.Evaluate(original, &pool);
    if (!warm.ok()) {
      std::fprintf(stderr, "warm-up failed\n");
      return 1;
    }
    auto run = evaluator.Evaluate(refined, &pool);
    if (!run.ok()) {
      std::fprintf(stderr, "refined run failed\n");
      return 1;
    }
    PrintTrace(buffer_aware
                   ? "Table 2 - refined query under BAF (term pushed back)"
                   : "Table 1 - refined query under DF (idf order)",
               run.value(), names);
  }

  std::printf(
      "\n(paper, Table 1: invest processed 3rd, 37 pages read; Table 2: "
      "invest processed last, 20 pages read; all other terms buffered)\n");
  return 0;
}
