#include "net/wire.h"

#include <algorithm>
#include <bit>
#include <cstdint>

#include "util/serialization.h"

namespace setrec {

namespace {
// The one hello layout: version byte 2, the SsrParams fields, a required
// wire-codec byte, then either nothing (untraced) or a nonzero u64 trace
// id. Any other version or length fails closed.
constexpr uint8_t kHelloVersion = 2;
}

Channel::Message MakeHelloMessage(const HelloSpec& spec) {
  ByteWriter writer;
  writer.PutU8(kHelloVersion);
  writer.PutU8(static_cast<uint8_t>(spec.protocol));
  writer.PutVarint(spec.set_id);
  writer.PutU8(spec.known_d.has_value() ? 1 : 0);
  if (spec.known_d.has_value()) writer.PutVarint(*spec.known_d);
  writer.PutVarint(spec.params.max_child_size);
  writer.PutVarint(spec.params.max_children);
  writer.PutVarint(spec.params.max_differing_children);
  writer.PutU64(spec.params.seed);
  writer.PutVarint(static_cast<uint64_t>(spec.params.max_attempts));
  writer.PutU64(std::bit_cast<uint64_t>(spec.params.estimate_slack));
  writer.PutU8(static_cast<uint8_t>(spec.params.wire_codec));
  if (spec.trace_id != 0) writer.PutU64(spec.trace_id);
  return Channel::Message{Party::kBob, writer.Take(), kHelloLabel};
}

Result<HelloSpec> ParseHelloMessage(const Channel::Message& m) {
  if (!IsHelloMessage(m)) return ParseError("not a hello frame");
  ByteReader reader(m.payload);
  uint8_t version = 0, protocol = 0, has_d = 0;
  if (!reader.GetU8(&version) || version != kHelloVersion) {
    return ParseError("hello: unsupported version");
  }
  if (!reader.GetU8(&protocol) || protocol >= kSsrProtocolKindCount) {
    return ParseError("hello: unknown protocol kind");
  }
  HelloSpec spec;
  spec.protocol = static_cast<SsrProtocolKind>(protocol);
  uint64_t set_id = 0, known_d = 0;
  uint64_t max_child_size = 0, max_children = 0, max_differing = 0;
  uint64_t max_attempts = 0, slack_bits = 0;
  uint8_t codec = 0;
  if (!reader.GetVarint(&set_id) || !reader.GetU8(&has_d) || has_d > 1 ||
      (has_d == 1 && !reader.GetVarint(&known_d)) ||
      !reader.GetVarint(&max_child_size) || !reader.GetVarint(&max_children) ||
      !reader.GetVarint(&max_differing) || !reader.GetU64(&spec.params.seed) ||
      !reader.GetVarint(&max_attempts) || !reader.GetU64(&slack_bits) ||
      !reader.GetU8(&codec) ||
      codec > static_cast<uint8_t>(WireCodec::kSparse)) {
    return ParseError("hello: truncated fields or unknown codec");
  }
  // Then nothing, or exactly a trace id. A zero id would make "absent ⇒
  // untraced" ambiguous, so it is malformed rather than meaning untraced.
  if (!reader.empty() && (!reader.GetU64(&spec.trace_id) ||
                          spec.trace_id == 0 || !reader.empty())) {
    return ParseError("hello: malformed trace id or trailing bytes");
  }
  spec.params.wire_codec = static_cast<WireCodec>(codec);
  // Bound the client-supplied sizes: they shape server-side IBLT sizes
  // (outer tables are ~O(d_hat) cells of ~O(max_child_size) bytes), and an
  // unchecked hello must not be able to make one connection allocate
  // gigabytes — or throw bad_alloc into a coroutine, which would terminate
  // the whole server. Caps: each bound individually, plus the cells×width
  // product that actually sizes tables.
  constexpr uint64_t kMaxBound = 1ull << 20;
  constexpr uint64_t kMaxTableProduct = 1ull << 22;
  const uint64_t d_bound = std::max(known_d, std::max(max_children,
                                                      max_differing));
  if (max_child_size > kMaxBound || max_children > kMaxBound ||
      max_differing > kMaxBound || known_d > kMaxBound ||
      (max_child_size + 2) * (d_bound + 2) > kMaxTableProduct ||
      max_attempts == 0 || max_attempts > 64) {
    return ParseError("hello: parameter out of range");
  }
  spec.set_id = set_id;
  if (has_d == 1) spec.known_d = static_cast<size_t>(known_d);
  spec.params.max_child_size = static_cast<size_t>(max_child_size);
  spec.params.max_children = static_cast<size_t>(max_children);
  spec.params.max_differing_children = static_cast<size_t>(max_differing);
  spec.params.max_attempts = static_cast<int>(max_attempts);
  spec.params.estimate_slack = std::bit_cast<double>(slack_bits);
  if (!(spec.params.estimate_slack >= 1.0) ||
      spec.params.estimate_slack > 64.0) {
    return ParseError("hello: estimate_slack out of range");
  }
  return spec;
}

Channel::Message MakeStatQueryMessage() {
  return Channel::Message{Party::kBob, {}, kStatQueryLabel};
}

Channel::Message MakeTraceQueryMessage() {
  return Channel::Message{Party::kBob, {}, kTraceQueryLabel};
}

}  // namespace setrec
