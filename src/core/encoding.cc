#include "core/encoding.h"

#include <cassert>
#include <cstring>

#include "util/serialization.h"

namespace setrec {

size_t ChildBlobWidth(size_t h) { return 4 + 8 * h; }

std::vector<uint8_t> EncodeChildBlob(const ChildSet& child, size_t h) {
  ByteWriter writer;
  writer.Reserve(ChildBlobWidth(h));
  AppendChildBlob(child, h, &writer);
  return writer.Take();
}

void AppendChildBlob(const ChildSet& child, size_t h, ByteWriter* out) {
  // Extend zero-fills, which is the blob's padding past the last element.
  uint8_t* blob = out->Extend(ChildBlobWidth(h));
  const uint32_t count = static_cast<uint32_t>(child.size());
  std::memcpy(blob, &count, 4);
  if (!child.empty()) std::memcpy(blob + 4, child.data(), 8 * child.size());
}

Result<ChildSet> DecodeChildBlob(const uint8_t* data, size_t size, size_t h) {
  if (size != ChildBlobWidth(h)) {
    return ParseError("child blob has unexpected width");
  }
  uint32_t count = 0;
  std::memcpy(&count, data, 4);
  if (count > h) return ParseError("child blob count exceeds h");
  ChildSet child(count);
  for (uint32_t i = 0; i < count; ++i) {
    std::memcpy(&child[i], data + 4 + 8 * i, 8);
    if (i > 0 && child[i] <= child[i - 1]) {
      return ParseError("child blob not sorted/unique");
    }
  }
  for (size_t i = 4 + 8 * static_cast<size_t>(count); i < size; ++i) {
    if (data[i] != 0) return ParseError("child blob has nonzero padding");
  }
  return child;
}

size_t ChildIbltBlobWidth(const IbltConfig& child_config) {
  return child_config.FixedSerializedSize() + 8;
}

std::vector<uint8_t> EncodeChildIbltBlob(const ChildSet& child,
                                         const IbltConfig& child_config,
                                         uint64_t fingerprint) {
  Iblt sketch(child_config);
  sketch.InsertBatch(child);
  ByteWriter writer;
  writer.Reserve(ChildIbltBlobWidth(child_config));
  AppendChildIbltBlob(sketch, fingerprint, &writer);
  return writer.Take();
}

void AppendChildIbltBlob(const Iblt& sketch, uint64_t fingerprint,
                         ByteWriter* out) {
  sketch.SerializeFixed(out);
  out->PutU64(fingerprint);
}

void AppendChildIbltBlobs(const SetOfSets& children,
                          const IbltConfig& child_config,
                          std::span<const uint64_t> fingerprints,
                          ByteWriter* out) {
  assert(fingerprints.size() == children.size());
  if (children.empty()) return;
  out->Reserve(children.size() * ChildIbltBlobWidth(child_config));
  Iblt sketch(child_config);
  for (size_t i = 0; i < children.size(); ++i) {
    sketch.Clear();
    sketch.InsertBatch(children[i]);
    AppendChildIbltBlob(sketch, fingerprints[i], out);
  }
}

Result<ChildEncoding> ParseChildIbltBlob(const uint8_t* data, size_t size,
                                         const IbltConfig& child_config) {
  if (size != ChildIbltBlobWidth(child_config)) {
    return ParseError("child IBLT blob has unexpected width");
  }
  ByteReader reader(data, size);
  Result<Iblt> sketch = Iblt::DeserializeFixed(&reader, child_config);
  if (!sketch.ok()) return sketch.status();
  uint64_t fingerprint = 0;
  if (!reader.GetU64(&fingerprint)) {
    return ParseError("child IBLT blob truncated (fingerprint)");
  }
  return ChildEncoding{std::move(sketch).value(), fingerprint};
}

}  // namespace setrec
