#include "corpus/text_corpus.h"

#include <gtest/gtest.h>

#include "core/filtering_evaluator.h"
#include "serve/concurrent_buffer_pool.h"

namespace irbuf::corpus {
namespace {

TEST(TextCorpusTest, EmbeddedCorpusIsNonTrivial) {
  const auto& docs = EmbeddedNewsCorpus();
  EXPECT_GE(docs.size(), 30u);
  for (const TextDocument& doc : docs) {
    EXPECT_FALSE(doc.title.empty());
    EXPECT_GT(doc.body.size(), 80u);
  }
}

TEST(TextCorpusTest, BuildsSearchableIndex) {
  auto pipeline = text::AnalysisPipeline::Default();
  auto index = BuildIndexFromDocuments(EmbeddedNewsCorpus(), pipeline, 16);
  ASSERT_TRUE(index.ok());
  const index::InvertedIndex& idx = index.value();
  EXPECT_EQ(idx.num_docs(), EmbeddedNewsCorpus().size());
  EXPECT_GT(idx.lexicon().size(), 100u);

  // Stop-words are not indexed; stems are.
  EXPECT_FALSE(idx.lexicon().Find("the").ok());
  EXPECT_TRUE(idx.lexicon().Find("price").ok());
  EXPECT_TRUE(idx.lexicon().Find("fiber").ok());

  // Query through the full stack: the fiber-hazards document must rank
  // first for a fiber query.
  core::Query q = core::Query::Parse("health hazards from fibers",
                                     pipeline, idx.lexicon());
  ASSERT_GE(q.size(), 2u);
  core::EvalOptions options;
  options.c_ins = 0.0;
  options.c_add = 0.0;
  core::FilteringEvaluator evaluator(&idx, options);
  serve::ConcurrentBufferPool pool(&idx.disk(), serve::PoolOptions(64));
  auto result = evaluator.Evaluate(q, &pool);
  ASSERT_TRUE(result.ok());
  ASSERT_FALSE(result.value().top_docs.empty());
  // Doc 4 is "Health hazards from fine diameter fibers studied".
  EXPECT_EQ(result.value().top_docs[0].doc, 4u);
}

TEST(TextCorpusTest, DocNormsPositiveForAllDocs) {
  auto pipeline = text::AnalysisPipeline::Default();
  auto index = BuildIndexFromDocuments(EmbeddedNewsCorpus(), pipeline, 16);
  ASSERT_TRUE(index.ok());
  for (DocId d = 0; d < index.value().num_docs(); ++d) {
    EXPECT_GT(index.value().doc_norm(d), 0.0) << d;
  }
}

}  // namespace
}  // namespace irbuf::corpus
