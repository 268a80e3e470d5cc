#ifndef SETREC_NET_WIRE_H_
#define SETREC_NET_WIRE_H_

#include <optional>

#include "service/sync_service.h"
#include "transport/channel.h"
#include "util/status.h"

namespace setrec {

/// The first frame a remote client sends on a fresh connection: which
/// registered server set to reconcile against and the full shared problem
/// statement (SsrParams are public knowledge — both parties must hold
/// identical values for the split-party halves to derive identical sketch
/// configurations). Everything after the hello is protocol traffic:
/// Channel::Message frames in the FrameDecoder wire format.
struct HelloSpec {
  SsrProtocolKind protocol = SsrProtocolKind::kNaive;
  /// RegisterSharedSet id of the server-side (Alice) set.
  uint64_t set_id = 0;
  SsrParams params;
  std::optional<size_t> known_d;
  /// Client-generated trace context. 0 = untraced: the hello ends at the
  /// codec byte, so untraced peers pay no bytes for tracing. A nonzero id
  /// is appended as a u64; the server tags its spans with it so both
  /// halves of the session merge into one timeline (docs/OBSERVABILITY.md).
  uint64_t trace_id = 0;
};

inline constexpr const char kHelloLabel[] = "hello";

/// Encodes `spec` as a hello frame (label "hello", sender Bob — the client
/// is the recovering party).
Channel::Message MakeHelloMessage(const HelloSpec& spec);

inline bool IsHelloMessage(const Channel::Message& m) {
  return m.label == kHelloLabel;
}

/// Parses a hello frame; kParseError on malformed payload.
[[nodiscard]] Result<HelloSpec> ParseHelloMessage(const Channel::Message& m);

/// Admin frames: a client (or operator tool) sends a "STAT?" frame at any
/// point — before a hello, or interleaved with protocol traffic — and the
/// pump answers immediately with a "STAT" frame whose payload is the
/// versioned text exposition (see docs/OBSERVABILITY.md). Admin frames are
/// invisible to the session layer: they are never taken for the hello,
/// never count against the per-step flood gate, and never enter a
/// transcript.
inline constexpr const char kStatQueryLabel[] = "STAT?";
inline constexpr const char kStatReplyLabel[] = "STAT";

/// Encodes a stats query frame (label "STAT?", sender Bob, empty payload).
Channel::Message MakeStatQueryMessage();

inline bool IsStatQueryMessage(const Channel::Message& m) {
  return m.label == kStatQueryLabel;
}

/// Second admin frame: "TRACE?" asks for the server's recently completed
/// session traces (traced sessions and slow ones); the reply is a "TRACE"
/// frame whose payload is the `# setrec-trace v1` text exposition
/// (obs/trace_text.h). Same admin-frame rules as STAT?.
inline constexpr const char kTraceQueryLabel[] = "TRACE?";
inline constexpr const char kTraceReplyLabel[] = "TRACE";

/// Encodes a trace query frame (label "TRACE?", sender Bob, empty payload).
Channel::Message MakeTraceQueryMessage();

inline bool IsTraceQueryMessage(const Channel::Message& m) {
  return m.label == kTraceQueryLabel;
}

}  // namespace setrec

#endif  // SETREC_NET_WIRE_H_
