// LINT-TEST-PATH: src/iblt/iblt_codec.cc
// LINT-TEST: expect parse-assert
//
// The IBLT frame parsers read bytes a peer sent, so their file is a
// wire-parse path like src/net/: an assert on a frame field is a remote
// crash (or a silent accept under NDEBUG).

#include <cstddef>
#include <cstdint>

namespace setrec {

bool ReadMaskGroup(const uint8_t* frame, size_t n, size_t width) {
  assert(n >= 1 && (frame[0] >> width) == 0);  // BAD: fail closed instead.
  return true;
}

}  // namespace setrec
