#include "util/binary_io.h"

#include <cstring>

#include "util/str.h"

namespace irbuf {

namespace {

// All multi-byte values are stored little-endian; on the (ubiquitous)
// little-endian hosts this is a straight memcpy.
template <typename T>
void ToLittleEndian(T value, uint8_t* out) {
  for (size_t i = 0; i < sizeof(T); ++i) {
    out[i] = static_cast<uint8_t>(value >> (8 * i));
  }
}

template <typename T>
T FromLittleEndian(const uint8_t* in) {
  T value = 0;
  for (size_t i = 0; i < sizeof(T); ++i) {
    value |= static_cast<T>(in[i]) << (8 * i);
  }
  return value;
}

}  // namespace

Result<BinaryWriter> BinaryWriter::Open(const std::string& path) {
  std::FILE* file = std::fopen(path.c_str(), "wb");
  if (file == nullptr) {
    return Status::IOError(StrFormat("cannot open '%s' for writing",
                                     path.c_str()));
  }
  return BinaryWriter(file);
}

BinaryWriter& BinaryWriter::operator=(BinaryWriter&& other) noexcept {
  if (this != &other) {
    if (file_ != nullptr) std::fclose(file_);
    file_ = other.file_;
    other.file_ = nullptr;
  }
  return *this;
}

BinaryWriter::~BinaryWriter() {
  if (file_ != nullptr) std::fclose(file_);
}

Status BinaryWriter::WriteRaw(const void* data, size_t size) {
  if (file_ == nullptr) return Status::FailedPrecondition("writer closed");
  if (std::fwrite(data, 1, size, file_) != size) {
    return Status::IOError("short write");
  }
  return Status::OK();
}

Status BinaryWriter::WriteU32(uint32_t value) {
  uint8_t buf[4];
  ToLittleEndian(value, buf);
  return WriteRaw(buf, sizeof(buf));
}

Status BinaryWriter::WriteU64(uint64_t value) {
  uint8_t buf[8];
  ToLittleEndian(value, buf);
  return WriteRaw(buf, sizeof(buf));
}

Status BinaryWriter::WriteDouble(double value) {
  uint64_t bits;
  std::memcpy(&bits, &value, sizeof(bits));
  return WriteU64(bits);
}

Status BinaryWriter::WriteString(const std::string& value) {
  IRBUF_RETURN_NOT_OK(WriteU32(static_cast<uint32_t>(value.size())));
  return WriteRaw(value.data(), value.size());
}

Status BinaryWriter::WriteBytes(const std::vector<uint8_t>& bytes) {
  IRBUF_RETURN_NOT_OK(WriteU32(static_cast<uint32_t>(bytes.size())));
  return WriteRaw(bytes.data(), bytes.size());
}

Status BinaryWriter::Close() {
  if (file_ == nullptr) return Status::FailedPrecondition("already closed");
  int rc = std::fclose(file_);
  file_ = nullptr;
  if (rc != 0) return Status::IOError("close failed");
  return Status::OK();
}

Result<BinaryReader> BinaryReader::Open(const std::string& path) {
  std::FILE* file = std::fopen(path.c_str(), "rb");
  if (file == nullptr) {
    return Status::IOError(StrFormat("cannot open '%s' for reading",
                                     path.c_str()));
  }
  long end = -1;
  if (std::fseek(file, 0, SEEK_END) == 0) end = std::ftell(file);
  if (end < 0 || std::fseek(file, 0, SEEK_SET) != 0) {
    std::fclose(file);
    return Status::IOError(StrFormat("cannot size '%s'", path.c_str()));
  }
  return BinaryReader(file, static_cast<uint64_t>(end));
}

BinaryReader& BinaryReader::operator=(BinaryReader&& other) noexcept {
  if (this != &other) {
    if (file_ != nullptr) std::fclose(file_);
    file_ = other.file_;
    size_ = other.size_;
    other.file_ = nullptr;
  }
  return *this;
}

BinaryReader::~BinaryReader() {
  if (file_ != nullptr) std::fclose(file_);
}

Status BinaryReader::ReadRaw(void* data, size_t size) {
  if (file_ == nullptr) return Status::FailedPrecondition("reader closed");
  if (std::fread(data, 1, size, file_) != size) {
    return Status::IOError("truncated file");
  }
  return Status::OK();
}

Status BinaryReader::ReadU32(uint32_t* value) {
  uint8_t buf[4];
  IRBUF_RETURN_NOT_OK(ReadRaw(buf, sizeof(buf)));
  *value = FromLittleEndian<uint32_t>(buf);
  return Status::OK();
}

Status BinaryReader::ReadU64(uint64_t* value) {
  uint8_t buf[8];
  IRBUF_RETURN_NOT_OK(ReadRaw(buf, sizeof(buf)));
  *value = FromLittleEndian<uint64_t>(buf);
  return Status::OK();
}

Status BinaryReader::ReadDouble(double* value) {
  uint64_t bits = 0;
  IRBUF_RETURN_NOT_OK(ReadU64(&bits));
  std::memcpy(value, &bits, sizeof(*value));
  return Status::OK();
}

Status BinaryReader::ReadString(std::string* value) {
  uint32_t size = 0;
  IRBUF_RETURN_NOT_OK(ReadU32(&size));
  IRBUF_RETURN_NOT_OK(CheckCount(size, 1));
  value->resize(size);
  return size == 0 ? Status::OK() : ReadRaw(value->data(), size);
}

Status BinaryReader::ReadBytes(std::vector<uint8_t>* bytes) {
  uint32_t size = 0;
  IRBUF_RETURN_NOT_OK(ReadU32(&size));
  IRBUF_RETURN_NOT_OK(CheckCount(size, 1));
  bytes->resize(size);
  return size == 0 ? Status::OK() : ReadRaw(bytes->data(), size);
}

Status BinaryReader::CheckCount(uint64_t count, uint64_t min_bytes_each) {
  if (file_ == nullptr) return Status::FailedPrecondition("reader closed");
  const long pos = std::ftell(file_);
  const uint64_t left =
      pos < 0 || static_cast<uint64_t>(pos) > size_
          ? 0
          : size_ - static_cast<uint64_t>(pos);
  if (min_bytes_each == 0) min_bytes_each = 1;
  if (count > left / min_bytes_each) {
    return Status::IOError(StrFormat(
        "count %llu of %llu-byte items exceeds the %llu bytes left in the "
        "file",
        static_cast<unsigned long long>(count),
        static_cast<unsigned long long>(min_bytes_each),
        static_cast<unsigned long long>(left)));
  }
  return Status::OK();
}

bool BinaryReader::AtEof() {
  if (file_ == nullptr) return true;
  int c = std::fgetc(file_);
  if (c == EOF) return true;
  std::ungetc(c, file_);
  return false;
}

}  // namespace irbuf
