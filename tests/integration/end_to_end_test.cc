// End-to-end integration: raw text -> analysis pipeline -> inverted index
// -> refinement workload -> buffer-managed evaluation -> effectiveness.

#include <gtest/gtest.h>

#include "core/boolean_evaluator.h"
#include "corpus/text_corpus.h"
#include "ir/experiment.h"
#include "ir/ir_system.h"
#include "metrics/effectiveness.h"
#include "serve/concurrent_buffer_pool.h"
#include "workload/refinement.h"

namespace irbuf {
namespace {

class EndToEndTest : public ::testing::Test {
 protected:
  void SetUp() override {
    pipeline_.emplace(text::AnalysisPipeline::Default());
    auto index = corpus::BuildIndexFromDocuments(
        corpus::EmbeddedNewsCorpus(), *pipeline_, 4);
    ASSERT_TRUE(index.ok());
    index_.emplace(std::move(index).value());
  }

  std::optional<text::AnalysisPipeline> pipeline_;
  std::optional<index::InvertedIndex> index_;
};

TEST_F(EndToEndTest, RefinementSessionOverRealText) {
  // A user searches, refines twice, and the answers stay sensible.
  ir::IrSystemOptions options;
  options.buffer_pages = 24;
  options.policy = buffer::PolicyKind::kRap;
  options.eval.buffer_aware = true;
  options.eval.top_n = 5;
  ir::IrSystem system(&*index_, options);

  auto r1 = system.Search("health hazards", *pipeline_);
  ASSERT_TRUE(r1.ok());
  auto r2 = system.Search("health hazards from fibers", *pipeline_);
  ASSERT_TRUE(r2.ok());
  auto r3 =
      system.Search("health hazards from asbestos fibers and insulation",
                    *pipeline_);
  ASSERT_TRUE(r3.ok());
  ASSERT_FALSE(r3.value().top_docs.empty());
  // The fiber-hazards article (doc 4) must be the final top answer.
  EXPECT_EQ(r3.value().top_docs[0].doc, 4u);
  // Later refinements reuse buffered pages: second run of overlapping
  // terms must hit.
  EXPECT_GT(system.buffers().StatsSnapshot().hits, 0u);
}

TEST_F(EndToEndTest, WorkloadConstructionOverRealText) {
  core::Query q = core::Query::Parse(
      "drastic price increases hit american stock markets and grocery "
      "shoppers as insurance losses mount after hurricane",
      *pipeline_, index_->lexicon());
  ASSERT_GE(q.size(), 8u);
  auto sequence = workload::BuildRefinementSequence(
      "wsj", q, *index_, workload::RefinementKind::kAddDrop);
  ASSERT_TRUE(sequence.ok());
  ASSERT_GE(sequence.value().steps.size(), 3u);

  ir::SequenceRunOptions run;
  run.buffer_pages = 16;
  run.policy = buffer::PolicyKind::kRap;
  run.buffer_aware = true;
  auto result =
      ir::RunRefinementSequence(*index_, sequence.value(), {}, run);
  ASSERT_TRUE(result.ok());
  EXPECT_GT(result.value().total_disk_reads, 0u);
}

TEST_F(EndToEndTest, BooleanAndRankedAgreeOnContainment) {
  // Every document a conjunctive boolean query returns must also be
  // scored by full ranked evaluation of the same terms.
  core::Query q = core::Query::Parse("price increases", *pipeline_,
                                     index_->lexicon());
  ASSERT_EQ(q.size(), 2u);

  core::BooleanEvaluator boolean(&*index_);
  serve::ConcurrentBufferPool pool1(&index_->disk(), serve::PoolOptions(64));
  auto anded = boolean.Evaluate(q, core::BooleanOp::kAnd, &pool1);
  ASSERT_TRUE(anded.ok());
  ASSERT_FALSE(anded.value().docs.empty());

  core::EvalOptions full;
  full.c_ins = 0.0;
  full.c_add = 0.0;
  full.top_n = 1000;
  core::FilteringEvaluator ranked(&*index_, full);
  serve::ConcurrentBufferPool pool2(&index_->disk(), serve::PoolOptions(64));
  auto scored = ranked.Evaluate(q, &pool2);
  ASSERT_TRUE(scored.ok());

  for (DocId d : anded.value().docs) {
    bool found = false;
    for (const core::ScoredDoc& sd : scored.value().top_docs) {
      if (sd.doc == d) found = true;
    }
    EXPECT_TRUE(found) << "doc " << d;
  }
}

TEST_F(EndToEndTest, TinyBufferPoolStillCorrect) {
  // Correctness must not depend on pool size — only efficiency does.
  core::Query q = core::Query::Parse("computer network security",
                                     *pipeline_, index_->lexicon());
  core::EvalOptions full;
  full.c_ins = 0.0;
  full.c_add = 0.0;
  core::FilteringEvaluator evaluator(&*index_, full);

  serve::ConcurrentBufferPool big(&index_->disk(), serve::PoolOptions(512));
  serve::ConcurrentBufferPool tiny(&index_->disk(), serve::PoolOptions(1));
  auto rb = evaluator.Evaluate(q, &big);
  auto rt = evaluator.Evaluate(q, &tiny);
  ASSERT_TRUE(rb.ok());
  ASSERT_TRUE(rt.ok());
  ASSERT_EQ(rb.value().top_docs.size(), rt.value().top_docs.size());
  for (size_t i = 0; i < rb.value().top_docs.size(); ++i) {
    EXPECT_EQ(rb.value().top_docs[i].doc, rt.value().top_docs[i].doc);
    EXPECT_NEAR(rb.value().top_docs[i].score, rt.value().top_docs[i].score,
                1e-9);
  }
  EXPECT_GE(rt.value().disk_reads, rb.value().disk_reads);
}

}  // namespace
}  // namespace irbuf
