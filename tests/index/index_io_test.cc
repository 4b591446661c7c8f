#include "index/index_io.h"

#include <gtest/gtest.h>

#include <cstdio>

#include "index/index_builder.h"

namespace irbuf::index {
namespace {

std::string TempPath(const char* name) {
  return std::string(::testing::TempDir()) + "/" + name;
}

InvertedIndex MakeIndex() {
  IndexBuilderOptions options;
  options.page_size = 2;
  options.num_docs = 32;
  IndexBuilder builder(options);
  EXPECT_TRUE(builder
                  .AddTermPostings("alpha",
                                   {{0, 9}, {1, 4}, {2, 2}, {3, 1}, {4, 1}})
                  .ok());
  EXPECT_TRUE(builder.AddTermPostings("beta", {{5, 3}, {6, 1}}).ok());
  EXPECT_TRUE(builder.AddTermPostings("gamma", {{7, 2}}).ok());
  auto index = std::move(builder).Build();
  EXPECT_TRUE(index.ok());
  return std::move(index).value();
}

TEST(IndexIoTest, RoundTripPreservesEverything) {
  InvertedIndex original = MakeIndex();
  std::string path = TempPath("roundtrip.irbf");
  ASSERT_TRUE(SaveIndex(original, path).ok());

  auto loaded = LoadIndex(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  const InvertedIndex& idx = loaded.value();

  EXPECT_EQ(idx.num_docs(), original.num_docs());
  ASSERT_EQ(idx.lexicon().size(), original.lexicon().size());
  for (TermId t = 0; t < idx.lexicon().size(); ++t) {
    const TermInfo& a = original.lexicon().info(t);
    const TermInfo& b = idx.lexicon().info(t);
    EXPECT_EQ(a.text, b.text);
    EXPECT_EQ(a.ft, b.ft);
    EXPECT_EQ(a.fmax, b.fmax);
    EXPECT_EQ(a.pages, b.pages);
    EXPECT_DOUBLE_EQ(a.idf, b.idf);
  }
  for (DocId d = 0; d < idx.num_docs(); ++d) {
    EXPECT_DOUBLE_EQ(idx.doc_norm(d), original.doc_norm(d));
  }
  EXPECT_EQ(idx.conversion_table().num_entries(),
            original.conversion_table().num_entries());
  EXPECT_EQ(idx.total_pages(), original.total_pages());
  EXPECT_EQ(idx.disk().total_postings(),
            original.disk().total_postings());

  // Page contents identical.
  for (TermId t = 0; t < idx.lexicon().size(); ++t) {
    for (uint32_t p = 0; p < idx.lexicon().info(t).pages; ++p) {
      storage::Page pa, pb;
      ASSERT_TRUE(original.disk().ReadPage(PageId{t, p}, &pa).ok());
      ASSERT_TRUE(idx.disk().ReadPage(PageId{t, p}, &pb).ok());
      EXPECT_EQ(pa.block, pb.block);
      EXPECT_DOUBLE_EQ(pa.max_weight, pb.max_weight);
    }
  }

  // Lexicon lookup by text still works after load.
  ASSERT_TRUE(idx.lexicon().Find("beta").ok());
  EXPECT_EQ(idx.lexicon().Find("beta").value(), 1u);
  std::remove(path.c_str());
}

TEST(IndexIoTest, MissingFileFails) {
  EXPECT_EQ(LoadIndex("/nonexistent/dir/x.irbf").status().code(),
            StatusCode::kIOError);
}

TEST(IndexIoTest, WrongMagicRejected) {
  std::string path = TempPath("garbage.irbf");
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  std::fputs("not an index at all, just text padding 12345678", f);
  std::fclose(f);
  EXPECT_EQ(LoadIndex(path).status().code(), StatusCode::kInvalidArgument);
  std::remove(path.c_str());
}

TEST(IndexIoTest, TruncatedFileRejected) {
  InvertedIndex original = MakeIndex();
  std::string path = TempPath("truncated.irbf");
  ASSERT_TRUE(SaveIndex(original, path).ok());
  // Truncate to 60% of its size.
  std::FILE* f = std::fopen(path.c_str(), "rb");
  ASSERT_NE(f, nullptr);
  std::fseek(f, 0, SEEK_END);
  long size = std::ftell(f);
  std::fclose(f);
  ASSERT_EQ(truncate(path.c_str(), size * 6 / 10), 0);
  EXPECT_FALSE(LoadIndex(path).ok());
  std::remove(path.c_str());
}

TEST(IndexIoTest, CorruptDocCountRejectedBeforeAllocating) {
  InvertedIndex original = MakeIndex();
  std::string path = TempPath("huge_num_docs.irbf");
  ASSERT_TRUE(SaveIndex(original, path).ok());
  // num_docs follows magic, version and the list-order tag. 2^32 - 1
  // documents would size a 32 GiB norms vector.
  std::FILE* f = std::fopen(path.c_str(), "r+b");
  ASSERT_NE(f, nullptr);
  ASSERT_EQ(std::fseek(f, 12, SEEK_SET), 0);
  const unsigned char huge[4] = {0xFF, 0xFF, 0xFF, 0xFF};
  ASSERT_EQ(std::fwrite(huge, 1, sizeof(huge), f), sizeof(huge));
  std::fclose(f);
  EXPECT_EQ(LoadIndex(path).status().code(), StatusCode::kIOError);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace irbuf::index
