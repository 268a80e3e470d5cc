#include "util/serialization.h"

namespace setrec {

namespace {

// Appends the little-endian bytes of `v` with one insert.
template <typename T>
void AppendLittleEndian(std::vector<uint8_t>* buf, T v) {
  uint8_t bytes[sizeof(T)];
  StoreLittleEndian(bytes, v);
  buf->insert(buf->end(), bytes, bytes + sizeof(T));
}

}  // namespace

void ByteWriter::PutU16(uint16_t v) { AppendLittleEndian(&buf_, v); }

void ByteWriter::PutU32(uint32_t v) { AppendLittleEndian(&buf_, v); }

void ByteWriter::PutU64(uint64_t v) { AppendLittleEndian(&buf_, v); }

uint8_t* ByteWriter::Extend(size_t n) {
  const size_t old_size = buf_.size();
  buf_.resize(old_size + n);
  return buf_.data() + old_size;
}

void ByteWriter::PutVarint(uint64_t v) {
  uint8_t bytes[10];
  buf_.insert(buf_.end(), bytes, PutVarintAt(v, bytes));
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

bool ByteReader::GetBytes(size_t n, std::vector<uint8_t>* out) {
  if (remaining() < n) return false;
  out->assign(data_, data_ + n);
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
