// LINT-TEST-PATH: src/core/iblt_of_iblts.cc
// LINT-TEST: expect seed-outside-ladder
//
// A protocol half that derives an attempt's seed from the shared params
// itself keeps a second copy of the ladder's seed schedule, which the other
// half (or the next schedule change) can miss.

#include <cstdint>

struct Params {
  uint64_t seed = 0;
};

struct Protocol {
  uint64_t TrialSeed(int trial) const {
    return params_.seed + 1000 + static_cast<uint64_t>(trial);
  }
  Params params_;
};
