// Shared fixture for the evaluator tests: builds small indices from
// explicit posting lists and computes ground-truth cosine rankings by
// brute force, independently of the evaluator under test.

#ifndef IRBUF_TESTS_CORE_TEST_INDEX_H_
#define IRBUF_TESTS_CORE_TEST_INDEX_H_

#include <algorithm>
#include <cmath>
#include <map>
#include <string>
#include <vector>

#include "core/query.h"
#include "index/index_builder.h"
#include "serve/concurrent_buffer_pool.h"
#include "util/rng.h"
#include "util/zipf.h"

namespace irbuf::core {

struct TestCollection {
  index::InvertedIndex index;
  /// Raw lists, term id -> postings (unsorted ok), for ground truth.
  std::vector<std::vector<Posting>> lists;
};

/// Builds an index over `lists` (term t named "t<t>").
inline TestCollection MakeCollection(uint32_t num_docs, uint32_t page_size,
                                     std::vector<std::vector<Posting>> lists) {
  index::IndexBuilderOptions options;
  options.page_size = page_size;
  options.num_docs = num_docs;
  index::IndexBuilder builder(options);
  for (size_t t = 0; t < lists.size(); ++t) {
    auto id = builder.AddTermPostings("t" + std::to_string(t), lists[t]);
    if (!id.ok() || id.value() != t) std::abort();
  }
  auto index = std::move(builder).Build();
  if (!index.ok()) std::abort();
  return TestCollection{std::move(index).value(), std::move(lists)};
}

/// A random collection with Zipf-ish lists; deterministic in `seed`.
inline TestCollection MakeRandomCollection(uint64_t seed, uint32_t num_docs,
                                           uint32_t num_terms,
                                           uint32_t page_size) {
  Pcg32 rng(seed);
  std::vector<std::vector<Posting>> lists(num_terms);
  for (uint32_t t = 0; t < num_terms; ++t) {
    uint32_t ft = 1 + rng.NextBounded(num_docs - 1);
    TruncatedGeometric freq(0.55, 40);
    for (DocId d : SampleDistinct(num_docs, ft, &rng)) {
      lists[t].push_back(Posting{d, freq.Sample(&rng)});
    }
  }
  return MakeCollection(num_docs, page_size, std::move(lists));
}

/// Ground truth: full cosine ranking of `query` over the raw lists.
inline std::vector<ScoredDoc> BruteForceRanking(const TestCollection& tc,
                                                const Query& query,
                                                uint32_t n) {
  std::map<DocId, double> scores;
  for (const QueryTerm& qt : query.terms()) {
    const double idf = tc.index.lexicon().info(qt.term).idf;
    for (const Posting& p : tc.lists[qt.term]) {
      scores[p.doc] += static_cast<double>(p.freq) * idf *
                       static_cast<double>(qt.fq) * idf;
    }
  }
  std::vector<ScoredDoc> ranked;
  for (auto& [doc, acc] : scores) {
    double norm = tc.index.doc_norm(doc);
    ranked.push_back(ScoredDoc{doc, norm > 0.0 ? acc / norm : 0.0});
  }
  std::sort(ranked.begin(), ranked.end(),
            [](const ScoredDoc& a, const ScoredDoc& b) {
              if (a.score != b.score) return a.score > b.score;
              return a.doc < b.doc;
            });
  if (ranked.size() > n) ranked.resize(n);
  return ranked;
}

/// A buffer pool big enough that replacement never happens.
inline serve::ConcurrentBufferPool MakeBigPool(const TestCollection& tc) {
  return serve::ConcurrentBufferPool(
      &tc.index.disk(), serve::PoolOptions(tc.index.total_pages() + 1));
}

}  // namespace irbuf::core

#endif  // IRBUF_TESTS_CORE_TEST_INDEX_H_
