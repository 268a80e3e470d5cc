#ifndef SETREC_UTIL_SERIALIZATION_H_
#define SETREC_UTIL_SERIALIZATION_H_

#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "util/status.h"

namespace setrec {

/// The little-endian value of the sizeof(T) bytes at `p`. A little-endian
/// host holds the bytes in that order already, so it copies them with one
/// load (compilers do not reliably fold the byte assembly into one); any
/// other host assembles them byte by byte.
template <typename T>
inline T LoadLittleEndian(const uint8_t* p) {
  T v = 0;
  if constexpr (std::endian::native == std::endian::little) {
    std::memcpy(&v, p, sizeof(T));
  } else {
    for (size_t i = 0; i < sizeof(T); ++i) {
      v = static_cast<T>(v | (static_cast<T>(p[i]) << (8 * i)));
    }
  }
  return v;
}

/// Stores `v` as sizeof(T) little-endian bytes at `p`, with one store on a
/// little-endian host and byte by byte on any other.
template <typename T>
inline void StoreLittleEndian(uint8_t* p, T v) {
  if constexpr (std::endian::native == std::endian::little) {
    std::memcpy(p, &v, sizeof(T));
  } else {
    for (size_t i = 0; i < sizeof(T); ++i) {
      p[i] = static_cast<uint8_t>(v >> (8 * i));
    }
  }
}

/// The LEB128 varint of the wire format: 7 value bits a byte, low bits
/// first, the high bit set on every byte but the last (1-10 bytes).
/// VarintLen is its byte count; PutVarintAt writes it at `out` and returns
/// the end. ByteWriter::PutVarint and the IBLT frame encoders, which write
/// in place, both write through PutVarintAt.
inline size_t VarintLen(uint64_t v) {
  size_t n = 1;
  while (v >= 0x80) {
    v >>= 7;
    ++n;
  }
  return n;
}

inline uint8_t* PutVarintAt(uint64_t v, uint8_t* out) {
  while (v >= 0x80) {
    *out++ = static_cast<uint8_t>(v) | 0x80;
    v >>= 7;
  }
  *out++ = static_cast<uint8_t>(v);
  return out;
}

/// Appends primitive values to a growable byte buffer. All fixed-width
/// integers are little-endian. Used to build every protocol message, so the
/// exact byte counts reported by Channel reflect what a real implementation
/// would send.
///
/// Bulk writers that know or measure their output size up front (the
/// child-blob packers and every IBLT table encoder, sparse frames
/// included) fill it in place through Extend() — one call with the total,
/// or one Reserve() with the total first — so a multi-megabyte buffer is
/// allocated once instead of regrown as it fills.
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
  /// LEB128 variable-length encoding (PutVarintAt).
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
  //
  // The fixed-width and varint getters are inline: table parsers call them
  // once per cell field, and an out-of-line call per byte cost more than
  // the read.
  [[nodiscard]] bool GetU8(uint8_t* v) {
    if (remaining() < 1) return false;
    *v = *data_++;
    return true;
  }
  [[nodiscard]] bool GetU16(uint16_t* v) { return GetLittleEndian(v); }
  [[nodiscard]] bool GetU32(uint32_t* v) { return GetLittleEndian(v); }
  [[nodiscard]] bool GetU64(uint64_t* v) { return GetLittleEndian(v); }
  [[nodiscard]] bool GetVarint(uint64_t* v) {
    uint64_t out = 0;
    for (int shift = 0; shift < 64; shift += 7) {
      if (empty()) return false;
      const uint8_t byte = *data_++;
      // The 10th byte (shift 63) contributes exactly one payload bit; any
      // higher payload bit would shift past the 64-bit boundary and
      // silently truncate, so reject it instead of decoding a wrong value.
      if (shift == 63 && (byte & 0x7e) != 0) return false;
      out |= static_cast<uint64_t>(byte & 0x7f) << shift;
      if ((byte & 0x80) == 0) {
        *v = out;
        return true;
      }
    }
    return false;  // Overlong encoding (11+ bytes).
  }
  [[nodiscard]] bool GetBytes(size_t n, std::vector<uint8_t>* out);
  /// Copies `n` bytes straight into `dst` (no intermediate allocation);
  /// false on truncation, leaving `dst` untouched.
  [[nodiscard]] bool GetRaw(size_t n, uint8_t* dst) {
    if (remaining() < n) return false;
    if (n != 0) std::memcpy(dst, data_, n);
    data_ += n;
    return true;
  }
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
  /// The first unread byte, for parsers that bounds-check a whole section
  /// against remaining() once, read it in place, then Skip() past it.
  const uint8_t* position() const { return data_; }

 private:
  template <typename T>
  bool GetLittleEndian(T* v) {
    if (remaining() < sizeof(T)) return false;
    *v = LoadLittleEndian<T>(data_);
    data_ += sizeof(T);
    return true;
  }

  const uint8_t* data_;
  const uint8_t* end_;
};

}  // namespace setrec

#endif  // SETREC_UTIL_SERIALIZATION_H_
