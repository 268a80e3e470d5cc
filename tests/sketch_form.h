#ifndef SETREC_TESTS_SKETCH_FORM_H_
#define SETREC_TESTS_SKETCH_FORM_H_

// The reference the child-sketch form (IbltConfig::SketchSize) is tested
// against: an in-memory table's cells projected to that form by the test,
// from SerializeFixed's records, without the library's sketch writer.

#include <cstdint>
#include <cstring>
#include <vector>

#include "iblt/iblt.h"
#include "util/serialization.h"

namespace setrec {

/// `table` in the child-sketch form: every cell's count mod 256, then every
/// cell's checksum cut to config.SketchCheckWidth() bytes, then every
/// cell's key.
inline std::vector<uint8_t> SketchFormOf(const Iblt& table) {
  const IbltConfig& config = table.config();
  ByteWriter fixed;
  table.SerializeFixed(&fixed);  // Per cell: 4-byte count, check, key.
  const size_t cells = config.PaddedCells();
  const size_t w = config.SketchCheckWidth();
  const size_t key_width = config.key_width;
  const size_t record = IbltConfig::FixedRecordWidth(key_width);
  std::vector<uint8_t> out(config.SketchSize());
  for (size_t i = 0; i < cells; ++i) {
    const uint8_t* cell = fixed.bytes().data() + i * record;
    out[i] = cell[0];  // The count's low byte: the count mod 256.
    std::memcpy(out.data() + cells + i * w, cell + 4, w);
    std::memcpy(out.data() + cells * (1 + w) + i * key_width, cell + 12,
                key_width);
  }
  return out;
}

}  // namespace setrec

#endif  // SETREC_TESTS_SKETCH_FORM_H_
