#ifndef SETREC_UTIL_SERIALIZATION_H_
#define SETREC_UTIL_SERIALIZATION_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "util/status.h"

namespace setrec {

/// Appends primitive values to a growable byte buffer. All fixed-width
/// integers are little-endian. Used to build every protocol message, so the
/// exact byte counts reported by Channel reflect what a real implementation
/// would send.
///
/// Bulk writers (the child-blob packers, Iblt::SerializeFixed) that know
/// their output size up front fill fixed-width records in place through
/// Extend() — one call with the total, or one Reserve() with the total
/// first — so a multi-megabyte buffer is allocated once instead of regrown
/// as it fills.
class ByteWriter {
 public:
  ByteWriter() = default;

  void PutU8(uint8_t v) { buf_.push_back(v); }
  /// Each appends its little-endian bytes with one insert.
  void PutU16(uint16_t v);
  void PutU32(uint32_t v);
  void PutU64(uint64_t v);
  /// Makes room for exactly `n` more bytes, so appends totalling `n` bytes
  /// do not reallocate. Call it once with the total, not per record.
  void Reserve(size_t n) { buf_.reserve(buf_.size() + n); }
  /// Appends `n` zero bytes and returns a pointer to the first of them, for
  /// the caller to overwrite in place. The pointer is valid until the next
  /// append that reallocates (none, within a matching Reserve()).
  uint8_t* Extend(size_t n);
  /// LEB128 variable-length encoding (1-10 bytes).
  void PutVarint(uint64_t v);
  /// Appends `n` raw bytes.
  void PutBytes(const uint8_t* data, size_t n);
  void PutBytes(const std::vector<uint8_t>& data) {
    PutBytes(data.data(), data.size());
  }
  /// Varint length prefix followed by the raw bytes.
  void PutLengthPrefixed(const std::vector<uint8_t>& data);
  /// Varint count followed by varint-encoded elements.
  void PutU64Vector(const std::vector<uint64_t>& values);

  size_t size() const { return buf_.size(); }
  const std::vector<uint8_t>& bytes() const { return buf_; }
  /// Moves the accumulated buffer out of the writer.
  std::vector<uint8_t> Take() { return std::move(buf_); }

 private:
  std::vector<uint8_t> buf_;
};

/// Bounds-checked reader over a byte span. Every getter returns false (and
/// leaves the output untouched) on truncated input; protocols surface that as
/// StatusCode::kParseError.
class ByteReader {
 public:
  ByteReader(const uint8_t* data, size_t n) : data_(data), end_(data + n) {}
  explicit ByteReader(const std::vector<uint8_t>& data)
      : ByteReader(data.data(), data.size()) {}

  // Every getter is [[nodiscard]]: a discarded false means a truncated or
  // hostile input was silently treated as parsed — the exact bug class the
  // lint gate exists to exclude (see docs/ANALYSIS.md).
  [[nodiscard]] bool GetU8(uint8_t* v);
  [[nodiscard]] bool GetU16(uint16_t* v);
  [[nodiscard]] bool GetU32(uint32_t* v);
  [[nodiscard]] bool GetU64(uint64_t* v);
  [[nodiscard]] bool GetVarint(uint64_t* v);
  [[nodiscard]] bool GetBytes(size_t n, std::vector<uint8_t>* out);
  /// Copies `n` bytes straight into `dst` (no intermediate allocation);
  /// false on truncation, leaving `dst` untouched.
  [[nodiscard]] bool GetRaw(size_t n, uint8_t* dst);
  [[nodiscard]] bool GetLengthPrefixed(std::vector<uint8_t>* out);
  [[nodiscard]] bool GetU64Vector(std::vector<uint64_t>* out);

  /// Advances past `n` bytes without reading them; false on truncation,
  /// leaving the position untouched.
  [[nodiscard]] bool Skip(size_t n) {
    if (remaining() < n) return false;
    data_ += n;
    return true;
  }

  /// Number of unread bytes.
  size_t remaining() const { return static_cast<size_t>(end_ - data_); }
  bool empty() const { return data_ == end_; }

 private:
  const uint8_t* data_;
  const uint8_t* end_;
};

}  // namespace setrec

#endif  // SETREC_UTIL_SERIALIZATION_H_
