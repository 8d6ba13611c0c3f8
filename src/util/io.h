// Binary serialization primitives (varint, fixed-width, strings, vectors)
// plus whole-file helpers. Used by the vocabulary, inverted index and LDA
// model (de)serializers and by the experiment cache.
#ifndef TOPPRIV_UTIL_IO_H_
#define TOPPRIV_UTIL_IO_H_

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "util/status.h"

namespace toppriv::util {

/// Appends values to an in-memory byte buffer.
class BinaryWriter {
 public:
  BinaryWriter() = default;

  void WriteU8(uint8_t v) { buf_.push_back(static_cast<char>(v)); }
  void WriteU32(uint32_t v);
  void WriteU64(uint64_t v);
  void WriteDouble(double v);
  void WriteFloat(float v);

  /// LEB128 variable-length encoding; small values cost 1 byte.
  void WriteVarint(uint64_t v);

  /// Length-prefixed string.
  void WriteString(const std::string& s);

  void WriteDoubleVector(const std::vector<double>& v);
  void WriteFloatVector(const std::vector<float>& v);
  void WriteU32Vector(const std::vector<uint32_t>& v);

  const std::string& data() const { return buf_; }
  size_t size() const { return buf_.size(); }

 private:
  std::string buf_;
};

/// Reads values from a byte buffer; all methods fail soft via Status.
class BinaryReader {
 public:
  explicit BinaryReader(std::string data) : buf_(std::move(data)) {}

  Status ReadU8(uint8_t* v);
  Status ReadU32(uint32_t* v);
  Status ReadU64(uint64_t* v);
  Status ReadDouble(double* v);
  Status ReadFloat(float* v);
  Status ReadVarint(uint64_t* v);
  Status ReadString(std::string* s);
  Status ReadDoubleVector(std::vector<double>* v);
  Status ReadFloatVector(std::vector<float>* v);
  /// Reads a WriteFloatVector payload without copying it: `*count` floats
  /// start at `*bytes` inside the reader's buffer, at any alignment (read
  /// them with memcpy). The view lives as long as the reader.
  Status ReadFloatArray(size_t* count, const char** bytes);
  Status ReadU32Vector(std::vector<uint32_t>* v);

  /// True when the whole buffer has been consumed.
  bool AtEnd() const { return pos_ == buf_.size(); }
  size_t position() const { return pos_; }
  /// Bytes left to read. Deserializers use this to bound attacker-supplied
  /// element counts before allocating (a count can never exceed the bytes
  /// that are supposed to encode the elements).
  size_t remaining() const { return buf_.size() - pos_; }

 private:
  Status Need(size_t n);

  std::string buf_;
  size_t pos_ = 0;
};

/// Varint helpers operating on raw vectors (posting-list encoding).
void AppendVarint(uint64_t v, std::string* out);
/// Decodes one varint at `*pos`; advances `*pos`. Returns false on overrun.
bool DecodeVarint(const std::string& buf, size_t* pos, uint64_t* v);
/// Encoded size in bytes of AppendVarint/WriteVarint for `v` (1..10).
size_t VarintSize(uint64_t v);

/// Writes `data` to `path` atomically-ish (truncate + write).
Status WriteFile(const std::string& path, const std::string& data);
/// Reads the whole file at `path`.
StatusOr<std::string> ReadFileToString(const std::string& path);
/// True if a regular file exists at `path`.
bool FileExists(const std::string& path);
/// Creates a directory (and parents) if missing.
Status MakeDirs(const std::string& path);

}  // namespace toppriv::util

#endif  // TOPPRIV_UTIL_IO_H_
