#include "util/io.h"

#include <sys/stat.h>
#include <sys/types.h>

#include <cerrno>
#include <cstdio>

namespace toppriv::util {

void BinaryWriter::WriteU32(uint32_t v) {
  char tmp[4];
  std::memcpy(tmp, &v, 4);
  buf_.append(tmp, 4);
}

void BinaryWriter::WriteU64(uint64_t v) {
  char tmp[8];
  std::memcpy(tmp, &v, 8);
  buf_.append(tmp, 8);
}

void BinaryWriter::WriteDouble(double v) {
  char tmp[8];
  std::memcpy(tmp, &v, 8);
  buf_.append(tmp, 8);
}

void BinaryWriter::WriteFloat(float v) {
  char tmp[4];
  std::memcpy(tmp, &v, 4);
  buf_.append(tmp, 4);
}

void BinaryWriter::WriteVarint(uint64_t v) { AppendVarint(v, &buf_); }

void BinaryWriter::WriteString(const std::string& s) {
  WriteVarint(s.size());
  buf_.append(s);
}

void BinaryWriter::WriteDoubleVector(const std::vector<double>& v) {
  WriteVarint(v.size());
  for (double d : v) WriteDouble(d);
}

void BinaryWriter::WriteFloatVector(const std::vector<float>& v) {
  WriteVarint(v.size());
  // data() may be null for an empty vector; append requires a valid pointer
  // even for zero counts.
  if (!v.empty()) {
    buf_.append(reinterpret_cast<const char*>(v.data()),
                v.size() * sizeof(float));
  }
}

void BinaryWriter::WriteU32Vector(const std::vector<uint32_t>& v) {
  WriteVarint(v.size());
  for (uint32_t x : v) WriteVarint(x);
}

Status BinaryReader::Need(size_t n) {
  // Compare against the remaining byte count rather than `pos_ + n` — with
  // an attacker-controlled n the addition can wrap and pass the check.
  if (n > buf_.size() - pos_) {
    return Status::DataLoss("binary reader overrun");
  }
  return Status::Ok();
}

Status BinaryReader::ReadU8(uint8_t* v) {
  TOPPRIV_RETURN_IF_ERROR(Need(1));
  *v = static_cast<uint8_t>(buf_[pos_++]);
  return Status::Ok();
}

Status BinaryReader::ReadU32(uint32_t* v) {
  TOPPRIV_RETURN_IF_ERROR(Need(4));
  std::memcpy(v, buf_.data() + pos_, 4);
  pos_ += 4;
  return Status::Ok();
}

Status BinaryReader::ReadU64(uint64_t* v) {
  TOPPRIV_RETURN_IF_ERROR(Need(8));
  std::memcpy(v, buf_.data() + pos_, 8);
  pos_ += 8;
  return Status::Ok();
}

Status BinaryReader::ReadDouble(double* v) {
  TOPPRIV_RETURN_IF_ERROR(Need(8));
  std::memcpy(v, buf_.data() + pos_, 8);
  pos_ += 8;
  return Status::Ok();
}

Status BinaryReader::ReadFloat(float* v) {
  TOPPRIV_RETURN_IF_ERROR(Need(4));
  std::memcpy(v, buf_.data() + pos_, 4);
  pos_ += 4;
  return Status::Ok();
}

Status BinaryReader::ReadVarint(uint64_t* v) {
  if (!DecodeVarint(buf_, &pos_, v)) {
    return Status::DataLoss("varint overrun");
  }
  return Status::Ok();
}

Status BinaryReader::ReadString(std::string* s) {
  uint64_t n = 0;
  TOPPRIV_RETURN_IF_ERROR(ReadVarint(&n));
  TOPPRIV_RETURN_IF_ERROR(Need(n));
  s->assign(buf_.data() + pos_, n);
  pos_ += n;
  return Status::Ok();
}

Status BinaryReader::ReadDoubleVector(std::vector<double>* v) {
  uint64_t n = 0;
  TOPPRIV_RETURN_IF_ERROR(ReadVarint(&n));
  // Divide instead of multiplying: `n * 8` wraps for hostile n, passing the
  // bounds check and letting resize(n) demand gigabytes.
  if (n > remaining() / sizeof(double)) {
    return Status::DataLoss("double vector count exceeds payload");
  }
  v->resize(n);
  for (uint64_t i = 0; i < n; ++i) {
    TOPPRIV_RETURN_IF_ERROR(ReadDouble(&(*v)[i]));
  }
  return Status::Ok();
}

Status BinaryReader::ReadFloatVector(std::vector<float>* v) {
  size_t n = 0;
  const char* bytes = nullptr;
  TOPPRIV_RETURN_IF_ERROR(ReadFloatArray(&n, &bytes));
  v->resize(n);
  // n == 0 leaves data() null on a fresh vector, and memcpy's pointer
  // arguments are declared nonnull even for zero sizes (UBSan enforces it).
  if (n != 0) std::memcpy(v->data(), bytes, n * sizeof(float));
  return Status::Ok();
}

Status BinaryReader::ReadFloatArray(size_t* count, const char** bytes) {
  uint64_t n = 0;
  TOPPRIV_RETURN_IF_ERROR(ReadVarint(&n));
  if (n > remaining() / sizeof(float)) {
    return Status::DataLoss("float vector count exceeds payload");
  }
  *count = static_cast<size_t>(n);
  *bytes = buf_.data() + pos_;
  pos_ += *count * sizeof(float);
  return Status::Ok();
}

Status BinaryReader::ReadU32Vector(std::vector<uint32_t>* v) {
  uint64_t n = 0;
  TOPPRIV_RETURN_IF_ERROR(ReadVarint(&n));
  // Each element costs at least one varint byte.
  if (n > remaining()) {
    return Status::DataLoss("u32 vector count exceeds payload");
  }
  v->resize(n);
  for (uint64_t i = 0; i < n; ++i) {
    uint64_t x = 0;
    TOPPRIV_RETURN_IF_ERROR(ReadVarint(&x));
    if (x > UINT32_MAX) return Status::DataLoss("u32 overflow");
    (*v)[i] = static_cast<uint32_t>(x);
  }
  return Status::Ok();
}

void AppendVarint(uint64_t v, std::string* out) {
  while (v >= 0x80) {
    out->push_back(static_cast<char>((v & 0x7f) | 0x80));
    v >>= 7;
  }
  out->push_back(static_cast<char>(v));
}

size_t VarintSize(uint64_t v) {
  size_t n = 1;
  while (v >= 0x80) {
    v >>= 7;
    ++n;
  }
  return n;
}

bool DecodeVarint(const std::string& buf, size_t* pos, uint64_t* v) {
  uint64_t result = 0;
  int shift = 0;
  size_t p = *pos;
  while (p < buf.size() && shift < 64) {
    uint8_t byte = static_cast<uint8_t>(buf[p++]);
    const uint64_t bits = byte & 0x7f;
    // The 10th byte holds bit 63 alone; larger values would shift payload
    // bits off the top — reject rather than silently truncate (also keeps
    // hostile inputs out of -fsanitize=integer's unsigned-shift checks).
    if (shift == 63 && bits > 1) return false;
    result |= bits << shift;
    if ((byte & 0x80) == 0) {
      *pos = p;
      *v = result;
      return true;
    }
    shift += 7;
  }
  return false;
}

Status WriteFile(const std::string& path, const std::string& data) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) {
    return Status::IoError("cannot open for write: " + path);
  }
  size_t written = data.empty() ? 0 : std::fwrite(data.data(), 1, data.size(), f);
  int rc = std::fclose(f);
  if (written != data.size() || rc != 0) {
    return Status::IoError("short write: " + path);
  }
  return Status::Ok();
}

StatusOr<std::string> ReadFileToString(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    return Status::NotFound("cannot open: " + path);
  }
  std::string out;
  char buf[1 << 16];
  size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) {
    out.append(buf, n);
  }
  bool bad = std::ferror(f) != 0;
  std::fclose(f);
  if (bad) return Status::IoError("read error: " + path);
  return out;
}

bool FileExists(const std::string& path) {
  struct stat st;
  return ::stat(path.c_str(), &st) == 0 && S_ISREG(st.st_mode);
}

Status MakeDirs(const std::string& path) {
  if (path.empty()) return Status::InvalidArgument("empty path");
  std::string partial;
  for (size_t i = 0; i < path.size(); ++i) {
    partial.push_back(path[i]);
    if (path[i] == '/' || i + 1 == path.size()) {
      if (partial == "/" || partial.empty()) continue;
      if (::mkdir(partial.c_str(), 0755) != 0 && errno != EEXIST) {
        return Status::IoError("mkdir failed: " + partial);
      }
    }
  }
  return Status::Ok();
}

}  // namespace toppriv::util
