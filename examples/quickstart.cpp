// Quickstart: index a small embedded news collection through the full
// text-analysis pipeline, then search it interactively through the
// IrSystem facade.
//
//   $ ./examples/quickstart                      # demo queries
//   $ ./examples/quickstart "price increases"    # your own query

#include <cstdio>
#include <string>

#include "corpus/text_corpus.h"
#include "ir/ir_system.h"

using namespace irbuf;

namespace {

void RunQuery(ir::IrSystem* system, const text::AnalysisPipeline& pipeline,
              const std::string& text) {
  std::printf("\nquery: \"%s\"\n", text.c_str());
  auto result = system->Search(text, pipeline);
  if (!result.ok()) {
    std::printf("  error: %s\n", result.status().ToString().c_str());
    return;
  }
  if (result.value().top_docs.empty()) {
    std::printf("  (no matching documents)\n");
    return;
  }
  const auto& docs = corpus::EmbeddedNewsCorpus();
  for (size_t i = 0; i < result.value().top_docs.size(); ++i) {
    const core::ScoredDoc& sd = result.value().top_docs[i];
    std::printf("  %zu. [%.3f] %s\n", i + 1, sd.score,
                docs[sd.doc].title.c_str());
  }
  std::printf("  (disk reads: %llu, postings processed: %llu, "
              "candidate set: %llu)\n",
              static_cast<unsigned long long>(result.value().disk_reads),
              static_cast<unsigned long long>(
                  result.value().postings_processed),
              static_cast<unsigned long long>(result.value().accumulators));
}

}  // namespace

int main(int argc, char** argv) {
  // 1. Analyze and index the embedded collection (tokenize, remove
  //    stop-words, Porter-stem — exactly the paper's Section 4.2 recipe).
  auto pipeline = text::AnalysisPipeline::Default();
  auto index = corpus::BuildIndexFromDocuments(corpus::EmbeddedNewsCorpus(),
                                               pipeline, /*page_size=*/16);
  if (!index.ok()) {
    std::fprintf(stderr, "indexing failed: %s\n",
                 index.status().ToString().c_str());
    return 1;
  }
  std::printf("indexed %u documents, %zu distinct terms, %llu pages\n",
              index.value().num_docs(), index.value().lexicon().size(),
              static_cast<unsigned long long>(index.value().total_pages()));

  // 2. Stand up a retrieval system: buffer-aware evaluation (BAF) over a
  //    ranking-aware (RAP) buffer pool — the paper's best configuration.
  ir::IrSystemOptions options;
  options.buffer_pages = 32;
  options.policy = buffer::PolicyKind::kRap;
  options.eval.buffer_aware = true;
  options.eval.top_n = 5;
  ir::IrSystem system(&index.value(), options);

  // 3. Search.
  if (argc > 1) {
    for (int i = 1; i < argc; ++i) RunQuery(&system, pipeline, argv[i]);
  } else {
    RunQuery(&system, pipeline, "drastic price increases");
    RunQuery(&system, pipeline, "health hazards from asbestos fibers");
    RunQuery(&system, pipeline, "computer aided medical diagnosis");
    RunQuery(&system, pipeline,
             "satellite launch contracts and investment");
  }
  std::printf("\nbuffer pool: %llu fetches, %.0f%% hit rate\n",
              static_cast<unsigned long long>(
                  system.buffers().StatsSnapshot().fetches),
              system.buffers().StatsSnapshot().HitRate() * 100.0);
  return 0;
}
