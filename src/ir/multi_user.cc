#include "ir/multi_user.h"

#include <algorithm>

#include "core/filtering_evaluator.h"
#include "core/scorer.h"
#include "serve/concurrent_buffer_pool.h"

namespace irbuf::ir {

Result<MultiUserResult> RunMultiUserWorkload(
    const index::InvertedIndex& index,
    const std::vector<workload::RefinementSequence>& sequences,
    const MultiUserOptions& options) {
  core::EvalOptions eval;
  eval.c_ins = options.c_ins;
  eval.c_add = options.c_add;
  eval.top_n = options.top_n;
  eval.buffer_aware = options.buffer_aware;
  eval.record_trace = false;
  core::FilteringEvaluator evaluator(&index, eval);

  serve::ConcurrentBufferPool buffers(
      &index.disk(), serve::PoolOptions(options.buffer_pages, options.policy));
  // With a shared context the loop publishes each step's merged context
  // itself; the evaluator's own SetQueryContext must not overwrite it.
  buffers.SetExternalContextMode(options.shared_context);

  MultiUserResult result;
  result.users.resize(sequences.size());

  size_t max_steps = 0;
  for (const workload::RefinementSequence& seq : sequences) {
    max_steps = std::max(max_steps, seq.steps.size());
  }

  for (size_t step = 0; step < max_steps; ++step) {
    for (size_t user = 0; user < sequences.size(); ++user) {
      if (step >= sequences[user].steps.size()) continue;

      const core::Query& query = sequences[user].steps[step].query;
      if (options.shared_context) {
        // The replacement context must keep valuing what *other* active
        // users are working with (max w_{q,t} per shared term).
        buffer::QueryContext merged =
            core::BuildQueryContext(query, index.lexicon());
        for (size_t other = 0; other < sequences.size(); ++other) {
          if (other == user) continue;
          size_t other_step =
              std::min(step, sequences[other].steps.size() - 1);
          merged.MergeMax(core::BuildQueryContext(
              sequences[other].steps[other_step].query, index.lexicon()));
        }
        buffers.PublishContext(
            std::make_shared<const buffer::QueryContext>(std::move(merged)));
      }

      const buffer::BufferStats before = buffers.StatsSnapshot();
      Result<core::EvalResult> eval_result =
          evaluator.Evaluate(query, &buffers);
      if (!eval_result.ok()) return eval_result.status();
      const buffer::BufferStats after = buffers.StatsSnapshot();

      UserResult& ur = result.users[user];
      ur.disk_reads += after.misses - before.misses;
      ur.pages_processed += after.fetches - before.fetches;
      ++ur.steps_run;
    }
  }

  const buffer::BufferStats totals = buffers.StatsSnapshot();
  result.total_fetches = totals.fetches;
  result.total_hits = totals.hits;
  for (const UserResult& ur : result.users) {
    result.total_disk_reads += ur.disk_reads;
  }
  return result;
}

}  // namespace irbuf::ir
