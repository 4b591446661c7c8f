#include "util/binary_io.h"

#include <gtest/gtest.h>

#include <cstdio>

namespace irbuf {
namespace {

std::string TempPath(const char* name) {
  return std::string(::testing::TempDir()) + "/" + name;
}

TEST(BinaryIoTest, RoundTripsAllTypes) {
  std::string path = TempPath("roundtrip.bin");
  {
    auto writer = BinaryWriter::Open(path);
    ASSERT_TRUE(writer.ok());
    ASSERT_TRUE(writer.value().WriteU32(0).ok());
    ASSERT_TRUE(writer.value().WriteU32(4294967295u).ok());
    ASSERT_TRUE(writer.value().WriteU64(1ULL << 52).ok());
    ASSERT_TRUE(writer.value().WriteDouble(-3.14159).ok());
    ASSERT_TRUE(writer.value().WriteString("hello world").ok());
    ASSERT_TRUE(writer.value().WriteString("").ok());
    ASSERT_TRUE(writer.value().WriteBytes({1, 2, 3}).ok());
    ASSERT_TRUE(writer.value().Close().ok());
  }
  auto reader = BinaryReader::Open(path);
  ASSERT_TRUE(reader.ok());
  uint32_t u32 = 7;
  uint64_t u64 = 7;
  double d = 0;
  std::string s;
  std::vector<uint8_t> bytes;
  ASSERT_TRUE(reader.value().ReadU32(&u32).ok());
  EXPECT_EQ(u32, 0u);
  ASSERT_TRUE(reader.value().ReadU32(&u32).ok());
  EXPECT_EQ(u32, 4294967295u);
  ASSERT_TRUE(reader.value().ReadU64(&u64).ok());
  EXPECT_EQ(u64, 1ULL << 52);
  ASSERT_TRUE(reader.value().ReadDouble(&d).ok());
  EXPECT_DOUBLE_EQ(d, -3.14159);
  ASSERT_TRUE(reader.value().ReadString(&s).ok());
  EXPECT_EQ(s, "hello world");
  ASSERT_TRUE(reader.value().ReadString(&s).ok());
  EXPECT_EQ(s, "");
  ASSERT_TRUE(reader.value().ReadBytes(&bytes).ok());
  EXPECT_EQ(bytes, (std::vector<uint8_t>{1, 2, 3}));
  EXPECT_TRUE(reader.value().AtEof());
  std::remove(path.c_str());
}

TEST(BinaryIoTest, ReadPastEndFails) {
  std::string path = TempPath("short.bin");
  {
    auto writer = BinaryWriter::Open(path);
    ASSERT_TRUE(writer.ok());
    ASSERT_TRUE(writer.value().WriteU32(42).ok());
    ASSERT_TRUE(writer.value().Close().ok());
  }
  auto reader = BinaryReader::Open(path);
  ASSERT_TRUE(reader.ok());
  uint64_t u64 = 0;
  EXPECT_EQ(reader.value().ReadU64(&u64).code(), StatusCode::kIOError);
  std::remove(path.c_str());
}

TEST(BinaryIoTest, OpenMissingFileFails) {
  EXPECT_FALSE(BinaryReader::Open("/no/such/file.bin").ok());
  EXPECT_FALSE(BinaryWriter::Open("/no/such/dir/file.bin").ok());
}

TEST(BinaryIoTest, AtEofOnEmptyFile) {
  std::string path = TempPath("empty.bin");
  {
    auto writer = BinaryWriter::Open(path);
    ASSERT_TRUE(writer.ok());
    ASSERT_TRUE(writer.value().Close().ok());
  }
  auto reader = BinaryReader::Open(path);
  ASSERT_TRUE(reader.ok());
  EXPECT_TRUE(reader.value().AtEof());
  std::remove(path.c_str());
}

TEST(BinaryIoTest, CloseTwiceFails) {
  std::string path = TempPath("close.bin");
  auto writer = BinaryWriter::Open(path);
  ASSERT_TRUE(writer.ok());
  ASSERT_TRUE(writer.value().Close().ok());
  EXPECT_EQ(writer.value().Close().code(),
            StatusCode::kFailedPrecondition);
  std::remove(path.c_str());
}

TEST(BinaryIoTest, MoveTransfersOwnership) {
  std::string path = TempPath("move.bin");
  {
    auto writer = BinaryWriter::Open(path);
    ASSERT_TRUE(writer.ok());
    BinaryWriter moved = std::move(writer).value();
    ASSERT_TRUE(moved.WriteU32(9).ok());
    ASSERT_TRUE(moved.Close().ok());
  }
  auto reader = BinaryReader::Open(path);
  ASSERT_TRUE(reader.ok());
  BinaryReader moved = std::move(reader).value();
  uint32_t v = 0;
  ASSERT_TRUE(moved.ReadU32(&v).ok());
  EXPECT_EQ(v, 9u);
  std::remove(path.c_str());
}

/// Writes a 16-byte file: a u32 length field of `length`, then twelve
/// bytes of payload.
void WriteLengthPrefixedFile(const std::string& path, uint32_t length) {
  auto writer = BinaryWriter::Open(path);
  ASSERT_TRUE(writer.ok());
  ASSERT_TRUE(writer.value().WriteU32(length).ok());
  for (int i = 0; i < 3; ++i) ASSERT_TRUE(writer.value().WriteU32(7).ok());
  ASSERT_TRUE(writer.value().Close().ok());
}

TEST(BinaryIoTest, OversizedLengthFieldFailsBeforeAllocating) {
  // A corrupt length of 4 GiB in a 16-byte file must fail the read with
  // IOError instead of sizing a 4 GiB buffer first.
  std::string path = TempPath("oversized.bin");
  WriteLengthPrefixedFile(path, 0xFFFFFFFFu);
  {
    auto reader = BinaryReader::Open(path);
    ASSERT_TRUE(reader.ok());
    std::string s;
    EXPECT_EQ(reader.value().ReadString(&s).code(), StatusCode::kIOError);
    EXPECT_TRUE(s.empty());
  }
  {
    auto reader = BinaryReader::Open(path);
    ASSERT_TRUE(reader.ok());
    std::vector<uint8_t> bytes;
    EXPECT_EQ(reader.value().ReadBytes(&bytes).code(), StatusCode::kIOError);
    EXPECT_TRUE(bytes.empty());
  }
  std::remove(path.c_str());
}

TEST(BinaryIoTest, LengthFieldThatFitsStillReads) {
  std::string path = TempPath("fits.bin");
  WriteLengthPrefixedFile(path, 12);  // Exactly the bytes left.
  auto reader = BinaryReader::Open(path);
  ASSERT_TRUE(reader.ok());
  std::vector<uint8_t> bytes;
  ASSERT_TRUE(reader.value().ReadBytes(&bytes).ok());
  EXPECT_EQ(bytes.size(), 12u);
  EXPECT_TRUE(reader.value().AtEof());
  std::remove(path.c_str());
}

TEST(BinaryIoTest, CheckCountBoundsItemsByBytesLeft) {
  std::string path = TempPath("count.bin");
  WriteLengthPrefixedFile(path, 0);
  auto reader = BinaryReader::Open(path);
  ASSERT_TRUE(reader.ok());
  uint32_t v = 0;
  ASSERT_TRUE(reader.value().ReadU32(&v).ok());  // 12 bytes left.
  EXPECT_TRUE(reader.value().CheckCount(3, 4).ok());
  EXPECT_EQ(reader.value().CheckCount(4, 4).code(), StatusCode::kIOError);
  EXPECT_EQ(reader.value().CheckCount(0xFFFFFFFFu, 8).code(),
            StatusCode::kIOError);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace irbuf
