// Minimal little-endian binary (de)serialization over std::FILE, used by
// the index and corpus persistence formats. Every Read* checks for
// truncation and reports IOError, and no count read from a file sizes an
// allocation before CheckCount has bounded it by the bytes left.

#ifndef IRBUF_UTIL_BINARY_IO_H_
#define IRBUF_UTIL_BINARY_IO_H_

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "util/status.h"

namespace irbuf {

/// Buffered binary writer owning a FILE handle.
class BinaryWriter {
 public:
  /// Opens `path` for writing (truncates).
  static Result<BinaryWriter> Open(const std::string& path);

  BinaryWriter(BinaryWriter&& other) noexcept : file_(other.file_) {
    other.file_ = nullptr;
  }
  BinaryWriter& operator=(BinaryWriter&& other) noexcept;
  BinaryWriter(const BinaryWriter&) = delete;
  BinaryWriter& operator=(const BinaryWriter&) = delete;
  ~BinaryWriter();

  Status WriteU32(uint32_t value);
  Status WriteU64(uint64_t value);
  Status WriteDouble(double value);
  Status WriteString(const std::string& value);
  Status WriteBytes(const std::vector<uint8_t>& bytes);

  /// Flushes and closes; must be called to guarantee durability.
  Status Close();

 private:
  explicit BinaryWriter(std::FILE* file) : file_(file) {}
  Status WriteRaw(const void* data, size_t size);

  std::FILE* file_;
};

/// Buffered binary reader owning a FILE handle.
class BinaryReader {
 public:
  static Result<BinaryReader> Open(const std::string& path);

  BinaryReader(BinaryReader&& other) noexcept
      : file_(other.file_), size_(other.size_) {
    other.file_ = nullptr;
  }
  BinaryReader& operator=(BinaryReader&& other) noexcept;
  BinaryReader(const BinaryReader&) = delete;
  BinaryReader& operator=(const BinaryReader&) = delete;
  ~BinaryReader();

  Status ReadU32(uint32_t* value);
  Status ReadU64(uint64_t* value);
  Status ReadDouble(double* value);
  Status ReadString(std::string* value);
  Status ReadBytes(std::vector<uint8_t>* bytes);

  /// IOError when `count` items of at least `min_bytes_each` bytes could
  /// not fit in what is left of the file. Call it on every count read
  /// from the file before sizing a container with it, so a corrupt
  /// count fails the load instead of allocating gigabytes.
  Status CheckCount(uint64_t count, uint64_t min_bytes_each);

  /// True when the read cursor is at end of file.
  bool AtEof();

 private:
  BinaryReader(std::FILE* file, uint64_t size) : file_(file), size_(size) {}
  Status ReadRaw(void* data, size_t size);

  std::FILE* file_;
  /// File length in bytes, taken at Open.
  uint64_t size_;
};

}  // namespace irbuf

#endif  // IRBUF_UTIL_BINARY_IO_H_
