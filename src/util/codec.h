// Copyright (c) saedb authors. Licensed under the MIT license.
//
// Little-endian fixed-width integer codecs used by every on-page and on-wire
// format in the project. Kept header-only and branch-free; these sit on the
// hot path of node (de)serialization.

#ifndef SAE_UTIL_CODEC_H_
#define SAE_UTIL_CODEC_H_

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

namespace sae {

inline void EncodeU16(uint8_t* dst, uint16_t v) { std::memcpy(dst, &v, 2); }
inline void EncodeU32(uint8_t* dst, uint32_t v) { std::memcpy(dst, &v, 4); }
inline void EncodeU64(uint8_t* dst, uint64_t v) { std::memcpy(dst, &v, 8); }

inline uint16_t DecodeU16(const uint8_t* src) {
  uint16_t v;
  std::memcpy(&v, src, 2);
  return v;
}
inline uint32_t DecodeU32(const uint8_t* src) {
  uint32_t v;
  std::memcpy(&v, src, 4);
  return v;
}
inline uint64_t DecodeU64(const uint8_t* src) {
  uint64_t v;
  std::memcpy(&v, src, 8);
  return v;
}

/// Append-only byte sink used to serialize protocol messages; the resulting
/// buffer size is what the simulation meters as network bytes.
class ByteWriter {
 public:
  void PutU8(uint8_t v) { buf_.push_back(v); }
  void PutU16(uint16_t v) { PutRaw(&v, 2); }
  void PutU32(uint32_t v) { PutRaw(&v, 4); }
  void PutU64(uint64_t v) { PutRaw(&v, 8); }
  void PutBytes(const uint8_t* data, size_t len) { PutRaw(data, len); }
  void PutString(const std::string& s) {
    PutU32(static_cast<uint32_t>(s.size()));
    PutRaw(s.data(), s.size());
  }
  /// Reserves room for `total` bytes in all, so a writer whose final size
  /// is known grows once.
  void Reserve(size_t total) { buf_.reserve(total); }
  /// Appends `len` zero bytes and returns where they start, for callers
  /// that encode in place; valid until the next Put.
  uint8_t* Extend(size_t len) {
    buf_.resize(buf_.size() + len);
    return buf_.data() + buf_.size() - len;
  }

  const std::vector<uint8_t>& bytes() const { return buf_; }
  size_t size() const { return buf_.size(); }
  std::vector<uint8_t> Release() { return std::move(buf_); }

 private:
  void PutRaw(const void* p, size_t len) {
    const uint8_t* b = static_cast<const uint8_t*>(p);
    buf_.insert(buf_.end(), b, b + len);
  }

  std::vector<uint8_t> buf_;
};

/// Cursor-based reader matching ByteWriter. Out-of-bounds reads flip a sticky
/// error bit rather than crashing, so corrupt wire data is reported as such.
class ByteReader {
 public:
  ByteReader(const uint8_t* data, size_t len) : data_(data), len_(len) {}
  explicit ByteReader(const std::vector<uint8_t>& buf)
      : ByteReader(buf.data(), buf.size()) {}

  uint8_t GetU8() { return Ok(1) ? data_[pos_++] : 0; }
  uint16_t GetU16() { return GetFixed<uint16_t>(); }
  uint32_t GetU32() { return GetFixed<uint32_t>(); }
  uint64_t GetU64() { return GetFixed<uint64_t>(); }

  bool GetBytes(uint8_t* dst, size_t n) {
    if (!Ok(n)) return false;
    std::memcpy(dst, data_ + pos_, n);
    pos_ += n;
    return true;
  }

  /// Consumes `n` bytes and returns where they start in the input, or
  /// nullptr (and the sticky error) when fewer than `n` remain.
  const uint8_t* Take(size_t n) {
    if (!Ok(n)) return nullptr;
    const uint8_t* p = data_ + pos_;
    pos_ += n;
    return p;
  }

  std::string GetString() {
    uint32_t n = GetU32();
    if (!Ok(n)) return {};
    std::string s(reinterpret_cast<const char*>(data_ + pos_), n);
    pos_ += n;
    return s;
  }

  size_t remaining() const { return len_ - pos_; }
  bool failed() const { return failed_; }

 private:
  template <typename T>
  T GetFixed() {
    if (!Ok(sizeof(T))) return T{0};
    T v;
    std::memcpy(&v, data_ + pos_, sizeof(T));
    pos_ += sizeof(T);
    return v;
  }

  bool Ok(size_t need) {
    if (failed_ || pos_ + need > len_) {
      failed_ = true;
      return false;
    }
    return true;
  }

  const uint8_t* data_;
  size_t len_;
  size_t pos_ = 0;
  bool failed_ = false;
};

}  // namespace sae

#endif  // SAE_UTIL_CODEC_H_
