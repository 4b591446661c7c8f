// Tests of the document-ordered index layout (the traditional
// organization the paper contrasts against in footnote 14).

#include <gtest/gtest.h>

#include "core/filtering_evaluator.h"
#include "index/index_builder.h"
#include "index/index_io.h"
#include "serve/concurrent_buffer_pool.h"

namespace irbuf::index {
namespace {

InvertedIndex BuildDocOrdered() {
  IndexBuilderOptions options;
  options.page_size = 2;
  options.num_docs = 64;
  options.order = ListOrder::kDocumentOrdered;
  IndexBuilder builder(options);
  // Unsorted input; high frequency deliberately late in doc order.
  EXPECT_TRUE(builder
                  .AddTermPostings(
                      "x", {{40, 9}, {1, 1}, {20, 1}, {5, 2}, {60, 1}})
                  .ok());
  EXPECT_TRUE(builder.AddTermPostings("y", {{3, 4}}).ok());
  auto index = std::move(builder).Build();
  EXPECT_TRUE(index.ok());
  return std::move(index).value();
}

TEST(DocOrderedIndexTest, PagesAreDocOrdered) {
  InvertedIndex index = BuildDocOrdered();
  EXPECT_EQ(index.order(), IndexListOrder::kDocumentOrdered);
  storage::Page page;
  DocId last = 0;
  for (uint32_t p = 0; p < index.lexicon().info(0).pages; ++p) {
    ASSERT_TRUE(index.disk().ReadPage(PageId{0, p}, &page).ok());
    ASSERT_TRUE(storage::IsDocumentOrdered(page.block));
    EXPECT_GT(page.block.doc_ids.front(), last);
    last = page.block.doc_ids.back();
  }
}

TEST(DocOrderedIndexTest, StatisticsStillCorrect) {
  InvertedIndex index = BuildDocOrdered();
  const TermInfo& info = index.lexicon().info(0);
  EXPECT_EQ(info.ft, 5u);
  EXPECT_EQ(info.fmax, 9u);  // Max over the list, not the first posting.
  EXPECT_EQ(info.pages, 3u);
  // Page max-weights reflect the true per-page maximum.
  EXPECT_DOUBLE_EQ(index.disk().PageMaxWeight(PageId{0, 1}),
                   9.0 * info.idf);  // Page [(20,1),(40,9)].
}

TEST(DocOrderedIndexTest, NoConversionTableRows) {
  InvertedIndex index = BuildDocOrdered();
  EXPECT_EQ(index.conversion_table().num_entries(), 0u);
  // Lookup degrades conservatively to "all pages".
  EXPECT_EQ(index.conversion_table().PagesToProcess(0, 3.0, 3, 9), 3u);
}

TEST(DocOrderedIndexTest, FilteringCannotStopEarly) {
  // A strong first term raises thresholds; on a frequency-sorted index
  // the second list would be truncated, on a document-ordered one it is
  // read in full — and the late high-frequency posting still counts.
  for (ListOrder order :
       {ListOrder::kFrequencySorted, ListOrder::kDocumentOrdered}) {
    IndexBuilderOptions options;
    options.page_size = 4;
    options.num_docs = 1024;
    options.order = order;
    IndexBuilder builder(options);
    ASSERT_TRUE(builder.AddTermPostings("booster", {{0, 50}}).ok());
    std::vector<Posting> list;
    for (DocId d = 1; d <= 39; ++d) list.push_back({d, 1});
    list.push_back({999, 30});  // High frequency, last in doc order.
    ASSERT_TRUE(builder.AddTermPostings("long", std::move(list)).ok());
    auto index = std::move(builder).Build();
    ASSERT_TRUE(index.ok());

    core::Query q;
    auto booster = index.value().lexicon().Find("booster");
    auto long_term = index.value().lexicon().Find("long");
    ASSERT_TRUE(booster.ok());
    ASSERT_TRUE(long_term.ok());
    q.AddTerm(booster.value(), 5);
    q.AddTerm(long_term.value(), 1);

    core::EvalOptions eval;
    eval.c_ins = 0.02;  // Low enough that the late f=30 posting inserts.
    eval.c_add = 0.002;
    core::FilteringEvaluator evaluator(&index.value(), eval);
    serve::ConcurrentBufferPool pool(&index.value().disk(),
                                     serve::PoolOptions(64));
    auto result = evaluator.Evaluate(q, &pool);
    ASSERT_TRUE(result.ok());

    uint32_t long_pages = index.value().lexicon().info(long_term.value()).pages;
    const core::TermTrace& trace = result.value().trace.back();
    if (order == ListOrder::kFrequencySorted) {
      EXPECT_LT(trace.pages_processed, long_pages);
    } else {
      // Footnote 14: document-ordered lists are read in full.
      EXPECT_EQ(trace.pages_processed, long_pages);
      // The trailing high-frequency posting was found and scored: doc
      // 999 must be a strong answer.
      bool found = false;
      for (const core::ScoredDoc& sd : result.value().top_docs) {
        if (sd.doc == 999) found = true;
      }
      EXPECT_TRUE(found);
    }
  }
}

TEST(DocOrderedIndexTest, PersistenceRoundTripsOrder) {
  InvertedIndex original = BuildDocOrdered();
  std::string path = std::string(::testing::TempDir()) + "/docord.irbf";
  ASSERT_TRUE(SaveIndex(original, path).ok());
  auto loaded = LoadIndex(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded.value().order(), IndexListOrder::kDocumentOrdered);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace irbuf::index
