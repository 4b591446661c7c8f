#include "workload/contribution.h"

#include <algorithm>
#include <unordered_map>

#include "core/scorer.h"
#include "serve/concurrent_buffer_pool.h"

namespace irbuf::workload {

Result<std::vector<RankedTerm>> RankTermsByContribution(
    const core::Query& query, const index::InvertedIndex& index,
    uint32_t top_k) {
  // Full evaluation: no filtering, all postings contribute.
  core::EvalOptions full;
  full.c_ins = 0.0;
  full.c_add = 0.0;
  full.top_n = top_k;
  full.record_trace = false;
  core::FilteringEvaluator evaluator(&index, full);

  // Scratch pool; its contents and stats are discarded.
  serve::ConcurrentBufferPool scratch(&index.disk(), serve::PoolOptions(64));
  Result<core::EvalResult> result = evaluator.Evaluate(query, &scratch);
  if (!result.ok()) return result.status();

  // doc -> 1/W_d for the top-k answers.
  std::unordered_map<DocId, double> top_inv_norm;
  for (const core::ScoredDoc& sd : result.value().top_docs) {
    const double norm = index.doc_norm(sd.doc);
    top_inv_norm.emplace(sd.doc, norm > 0.0 ? 1.0 / norm : 0.0);
  }
  const double denom =
      top_inv_norm.empty() ? 1.0 : static_cast<double>(top_inv_norm.size());

  // Re-scan each term's list, picking out the top-k documents.
  std::vector<RankedTerm> ranked;
  ranked.reserve(query.size());
  for (const core::QueryTerm& qt : query.terms()) {
    const index::TermInfo& info = index.lexicon().info(qt.term);
    const double wq = core::QueryTermWeight(qt.fq, info.idf);
    double sum = 0.0;
    for (uint32_t page_no = 0; page_no < info.pages; ++page_no) {
      // Pinned access like the evaluators: one page pinned at a time,
      // released before the next fetch (raw-fetch lint contract).
      Result<buffer::PinnedPage> page =
          scratch.FetchPinned(PageId{qt.term, page_no});
      if (!page.ok()) return page.status();
      const storage::PostingBlock& block = page.value()->block;
      for (const storage::PostingRun& run : block.runs) {
        const double partial = core::DocTermWeight(run.freq, info.idf) * wq;
        for (uint32_t i = run.begin; i < run.end; ++i) {
          auto it = top_inv_norm.find(block.doc_ids[i]);
          if (it != top_inv_norm.end()) sum += partial * it->second;
        }
      }
    }
    ranked.push_back(RankedTerm{qt, sum / denom});
  }

  std::sort(ranked.begin(), ranked.end(),
            [](const RankedTerm& a, const RankedTerm& b) {
              if (a.contribution != b.contribution) {
                return a.contribution > b.contribution;
              }
              return a.qt.term < b.qt.term;
            });
  return ranked;
}

}  // namespace irbuf::workload
