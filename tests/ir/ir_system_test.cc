#include "ir/ir_system.h"

#include <gtest/gtest.h>

#include "corpus/text_corpus.h"

namespace irbuf::ir {
namespace {

class IrSystemTest : public ::testing::Test {
 protected:
  void SetUp() override {
    pipeline_.emplace(text::AnalysisPipeline::Default());
    auto index = corpus::BuildIndexFromDocuments(
        corpus::EmbeddedNewsCorpus(), *pipeline_, 8);
    ASSERT_TRUE(index.ok());
    index_.emplace(std::move(index).value());
  }

  std::optional<text::AnalysisPipeline> pipeline_;
  std::optional<index::InvertedIndex> index_;
};

TEST_F(IrSystemTest, SearchReturnsRankedAnswers) {
  IrSystemOptions options;
  options.buffer_pages = 32;
  options.eval.top_n = 5;
  IrSystem system(&*index_, options);
  auto result = system.Search("stock market prices", *pipeline_);
  ASSERT_TRUE(result.ok());
  ASSERT_FALSE(result.value().top_docs.empty());
  EXPECT_LE(result.value().top_docs.size(), 5u);
  // Scores descend.
  for (size_t i = 1; i < result.value().top_docs.size(); ++i) {
    EXPECT_GE(result.value().top_docs[i - 1].score,
              result.value().top_docs[i].score);
  }
}

TEST_F(IrSystemTest, BuffersPersistAcrossSearches) {
  IrSystemOptions options;
  options.buffer_pages = 64;
  IrSystem system(&*index_, options);
  ASSERT_TRUE(system.Search("satellite launch contract", *pipeline_).ok());
  uint64_t misses_after_first = system.buffers().StatsSnapshot().misses;
  // The same query again: everything buffered.
  ASSERT_TRUE(system.Search("satellite launch contract", *pipeline_).ok());
  EXPECT_EQ(system.buffers().StatsSnapshot().misses, misses_after_first);

  system.FlushBuffers();
  ASSERT_TRUE(system.Search("satellite launch contract", *pipeline_).ok());
  EXPECT_GT(system.buffers().StatsSnapshot().misses, misses_after_first);
}

TEST_F(IrSystemTest, PolicyAndAlgorithmConfigurable) {
  IrSystemOptions options;
  options.buffer_pages = 16;
  options.policy = buffer::PolicyKind::kRap;
  options.eval.buffer_aware = true;
  IrSystem system(&*index_, options);
  EXPECT_STREQ(system.buffers().policy_name(), "RAP");
  auto result = system.Search("drastic price increases", *pipeline_);
  ASSERT_TRUE(result.ok());
  EXPECT_FALSE(result.value().top_docs.empty());
}

TEST_F(IrSystemTest, UnknownTermsYieldEmptyResult) {
  IrSystem system(&*index_, IrSystemOptions{});
  auto result = system.Search("zzzz qqqq", *pipeline_);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result.value().top_docs.empty());
}

}  // namespace
}  // namespace irbuf::ir
