#ifndef SETREC_NET_STREAM_PARTY_H_
#define SETREC_NET_STREAM_PARTY_H_

#include <cstdint>
#include <optional>
#include <string>

#include "core/protocol.h"
#include "net/wire.h"
#include "obs/trace.h"
#include "transport/channel.h"
#include "util/status.h"

namespace setrec {

/// Blocking connect helpers (client side / tests). The returned fd is
/// owned by the caller.
Result<int> ConnectTcp(const std::string& host, uint16_t port);
Result<int> ConnectUnix(const std::string& path);

/// Writes one message as a wire frame to `fd` (blocking, write-all).
Status WriteFrameToFd(int fd, const Channel::Message& message);

/// Sends the session hello (see net/wire.h) on a fresh connection.
Status SendHello(int fd, const HelloSpec& spec);

/// Admin round-trip: sends a "STAT?" frame and blocks for the server's
/// "STAT" reply, returning its text payload (the versioned exposition —
/// see docs/OBSERVABILITY.md). Works on a fresh connection (no hello
/// needed) or interleaved between protocol turns the caller owns.
/// Fails closed — kParseError — on an exposition whose version line is
/// not `# setrec-metrics v2` and on replies larger than the admin frame
/// ceiling.
Result<std::string> QueryStatsOverFd(int fd);

/// Admin round-trip for "TRACE?": returns the server's recent completed
/// traces as `# setrec-trace v1` text (obs/trace_text.h). Same fail-closed
/// rules as QueryStatsOverFd (unknown version line, oversized reply).
Result<std::string> QueryTracesOverFd(int fd);

/// Runs Bob's half of `protocol` over a connected stream: local sends are
/// framed onto `fd` as they happen, peer frames are read (blocking) and
/// appended to `*channel`, which ends up holding the full transcript —
/// byte-identical to a direct Reconcile's for the same inputs and seeds.
/// Call SendHello first when the peer is a NetPump server. Blocks the
/// calling thread until the protocol completes or the stream breaks
/// (kUnavailable on EOF/error, kParseError on a malformed frame).
///
/// With a non-null `tracer` (and nonzero `trace_id`), the client half
/// records its own spans — compute (local protocol work), send-wait
/// (blocking frame writes), recv-wait (blocked on the server's turn) —
/// into the tracer under `trace_id` as the span session id, so the client
/// timeline can be merged with the server half fetched via TRACE?.
Result<SsrOutcome> RunBobHalfOverFd(const SetsOfSetsProtocol& protocol,
                                    const SetOfSets& bob,
                                    std::optional<size_t> known_d, int fd,
                                    Channel* channel,
                                    obs::SessionTracer* tracer = nullptr,
                                    uint64_t trace_id = 0);

}  // namespace setrec

#endif  // SETREC_NET_STREAM_PARTY_H_
