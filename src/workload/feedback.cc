#include "workload/feedback.h"

#include <algorithm>
#include <unordered_map>

#include "core/filtering_evaluator.h"
#include "serve/concurrent_buffer_pool.h"

namespace irbuf::workload {

core::Query ExpandWithFeedback(const core::Query& query,
                               const std::vector<core::ScoredDoc>& top_docs,
                               const index::InvertedIndex& index,
                               const index::ForwardIndex& forward,
                               const FeedbackOptions& options) {
  const uint32_t df_cap = static_cast<uint32_t>(
      options.max_df_fraction * static_cast<double>(index.num_docs()));

  // Rocchio positive centroid: accumulate w_{d,t} * idf_t over the
  // feedback documents.
  std::unordered_map<TermId, double> scores;
  const size_t docs =
      std::min<size_t>(options.feedback_docs, top_docs.size());
  for (size_t i = 0; i < docs; ++i) {
    for (const index::ForwardPosting& fp :
         forward.TermsOf(top_docs[i].doc)) {
      const index::TermInfo& info = index.lexicon().info(fp.term);
      if (info.ft > df_cap) continue;  // Too common to discriminate.
      scores[fp.term] +=
          static_cast<double>(fp.freq) * info.idf * info.idf;
    }
  }

  // Highest scores first; existing query terms get an fq bump instead of
  // re-addition.
  std::vector<std::pair<TermId, double>> ranked(scores.begin(),
                                                scores.end());
  std::sort(ranked.begin(), ranked.end(),
            [](const auto& a, const auto& b) {
              if (a.second != b.second) return a.second > b.second;
              return a.first < b.first;
            });

  core::Query expanded = query;
  uint32_t added = 0;
  for (const auto& [term, score] : ranked) {
    if (added >= options.terms_per_round) break;
    if (expanded.Contains(term)) {
      if (expanded.FrequencyOf(term) < options.max_fq) {
        expanded.AddTerm(term, 1);  // fq bump, not a new term.
      }
      continue;
    }
    expanded.AddTerm(term, 1);
    ++added;
  }
  return expanded;
}

Result<RefinementSequence> BuildFeedbackSequence(
    const std::string& title, const core::Query& seed,
    const index::InvertedIndex& index, const index::ForwardIndex& forward,
    uint32_t rounds, const FeedbackOptions& options) {
  // Feedback rounds are evaluated on a private scratch pool with the
  // safe configuration, so workload construction is deterministic and
  // does not disturb the caller's buffers.
  core::EvalOptions full;
  full.c_ins = 0.0;
  full.c_add = 0.0;
  full.top_n = std::max<uint32_t>(options.feedback_docs, 20);
  full.record_trace = false;
  core::FilteringEvaluator evaluator(&index, full);

  RefinementSequence sequence;
  sequence.title = title;
  sequence.kind = RefinementKind::kAddOnly;

  core::Query current = seed;
  std::vector<TermId> added_this_round;
  for (const core::QueryTerm& qt : seed.terms()) {
    added_this_round.push_back(qt.term);  // Round 0 "adds" the seed.
  }
  for (uint32_t round = 0; round <= rounds; ++round) {
    RefinementStep step;
    step.query = current;
    step.added_terms = added_this_round;
    sequence.steps.push_back(std::move(step));
    if (round == rounds) break;

    serve::ConcurrentBufferPool scratch(&index.disk(), serve::PoolOptions(64));
    Result<core::EvalResult> result = evaluator.Evaluate(current,
                                                         &scratch);
    if (!result.ok()) return result.status();

    core::Query expanded = ExpandWithFeedback(
        current, result.value().top_docs, index, forward, options);
    added_this_round.clear();
    for (const core::QueryTerm& qt : expanded.terms()) {
      if (!current.Contains(qt.term)) added_this_round.push_back(qt.term);
    }
    current = std::move(expanded);
  }
  return sequence;
}

}  // namespace irbuf::workload
