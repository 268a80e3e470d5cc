// LINT-TEST-PATH: src/core/cascading_protocol.cc
// LINT-TEST: expect-clean
//
// A protocol half takes every coin from the rung its ladder hands it; the
// words params_.seed in prose or in a string literal do not fire.

#include <cstdint>

struct Rung {
  uint64_t seed = 0;
  uint64_t child_seed = 0;
};

struct Params {
  uint64_t max_child_size = 0;
};

struct Protocol {
  uint64_t OuterSeed(const Rung& rung) const { return rung.seed ^ 0x6c6f; }
  uint64_t ChildSeed(const Rung& rung) const { return rung.child_seed; }
  const char* Note() const { return "coins never come from params_.seed"; }
  Params params_;
};
