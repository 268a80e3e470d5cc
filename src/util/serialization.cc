#include "util/serialization.h"

#include <cstring>

namespace setrec {

namespace {

// Appends the `N` little-endian bytes of `v` with one insert.
template <size_t N, typename T>
void AppendLittleEndian(std::vector<uint8_t>* buf, T v) {
  uint8_t bytes[N];
  for (size_t i = 0; i < N; ++i) bytes[i] = static_cast<uint8_t>(v >> (8 * i));
  buf->insert(buf->end(), bytes, bytes + N);
}

}  // namespace

void ByteWriter::PutU16(uint16_t v) { AppendLittleEndian<2>(&buf_, v); }

void ByteWriter::PutU32(uint32_t v) { AppendLittleEndian<4>(&buf_, v); }

void ByteWriter::PutU64(uint64_t v) { AppendLittleEndian<8>(&buf_, v); }

uint8_t* ByteWriter::Extend(size_t n) {
  const size_t old_size = buf_.size();
  buf_.resize(old_size + n);
  return buf_.data() + old_size;
}

void ByteWriter::PutVarint(uint64_t v) {
  while (v >= 0x80) {
    PutU8(static_cast<uint8_t>(v) | 0x80);
    v >>= 7;
  }
  PutU8(static_cast<uint8_t>(v));
}

void ByteWriter::PutBytes(const uint8_t* data, size_t n) {
  buf_.insert(buf_.end(), data, data + n);
}

void ByteWriter::PutLengthPrefixed(const std::vector<uint8_t>& data) {
  PutVarint(data.size());
  PutBytes(data);
}

void ByteWriter::PutU64Vector(const std::vector<uint64_t>& values) {
  PutVarint(values.size());
  for (uint64_t v : values) PutVarint(v);
}

bool ByteReader::GetU8(uint8_t* v) {
  if (remaining() < 1) return false;
  *v = *data_++;
  return true;
}

bool ByteReader::GetU16(uint16_t* v) {
  if (remaining() < 2) return false;
  uint16_t out = 0;
  for (int i = 0; i < 2; ++i) {
    out = static_cast<uint16_t>(out | (static_cast<uint16_t>(*data_++) << (8 * i)));
  }
  *v = out;
  return true;
}

bool ByteReader::GetU32(uint32_t* v) {
  if (remaining() < 4) return false;
  uint32_t out = 0;
  for (int i = 0; i < 4; ++i) out |= static_cast<uint32_t>(*data_++) << (8 * i);
  *v = out;
  return true;
}

bool ByteReader::GetU64(uint64_t* v) {
  if (remaining() < 8) return false;
  uint64_t out = 0;
  for (int i = 0; i < 8; ++i) out |= static_cast<uint64_t>(*data_++) << (8 * i);
  *v = out;
  return true;
}

bool ByteReader::GetVarint(uint64_t* v) {
  uint64_t out = 0;
  for (int shift = 0; shift < 64; shift += 7) {
    if (empty()) return false;
    uint8_t byte = *data_++;
    // The 10th byte (shift 63) contributes exactly one payload bit; any
    // higher payload bit would shift past the 64-bit boundary and silently
    // truncate, so reject it instead of decoding a wrong value.
    if (shift == 63 && (byte & 0x7e) != 0) return false;
    out |= static_cast<uint64_t>(byte & 0x7f) << shift;
    if ((byte & 0x80) == 0) {
      *v = out;
      return true;
    }
  }
  return false;  // Overlong encoding (11+ bytes).
}

bool ByteReader::GetBytes(size_t n, std::vector<uint8_t>* out) {
  if (remaining() < n) return false;
  out->assign(data_, data_ + n);
  data_ += n;
  return true;
}

bool ByteReader::GetRaw(size_t n, uint8_t* dst) {
  if (remaining() < n) return false;
  std::memcpy(dst, data_, n);
  data_ += n;
  return true;
}

bool ByteReader::GetLengthPrefixed(std::vector<uint8_t>* out) {
  uint64_t n = 0;
  if (!GetVarint(&n)) return false;
  if (n > remaining()) return false;
  return GetBytes(static_cast<size_t>(n), out);
}

bool ByteReader::GetU64Vector(std::vector<uint64_t>* out) {
  uint64_t n = 0;
  if (!GetVarint(&n)) return false;
  if (n > remaining()) return false;  // Each element is >= 1 byte.
  out->clear();
  out->reserve(static_cast<size_t>(n));
  for (uint64_t i = 0; i < n; ++i) {
    uint64_t v = 0;
    if (!GetVarint(&v)) return false;
    out->push_back(v);
  }
  return true;
}

}  // namespace setrec
