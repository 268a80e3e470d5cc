#ifndef SETREC_EXAMPLES_NET_DEMO_H_
#define SETREC_EXAMPLES_NET_DEMO_H_

// Shared fixture for the networked demo pair (sync_server --listen and
// sync_client): both ends derive the demo state from the same fixed seeds,
// so the client can verify its recovery against what the server is known
// to hold. A real deployment replaces this with application state; the
// wire protocol (net/wire.h hello + frame stream) is unchanged.

#include <cstdint>
#include <memory>
#include <string>
#include <unistd.h>

#include "core/protocol.h"
#include "core/workload.h"
#include "hashing/random.h"
#include "net/stream_party.h"
#include "net/wire.h"
#include "obs/clock.h"
#include "obs/trace.h"
#include "service/sync_service.h"

namespace setrec {
namespace net_demo {

inline SsrWorkloadSpec DemoSpec() {
  SsrWorkloadSpec spec;
  spec.num_children = 48;
  spec.child_size = 10;
  spec.changes = 0;  // The server set is the base; clients drift from it.
  spec.seed = 20260730;
  return spec;
}

inline SsrParams DemoParams() {
  SsrParams params;
  params.max_child_size = DemoSpec().child_size + 8;
  params.max_children = DemoSpec().num_children + 8;
  params.seed = 4242;
  return params;
}

/// The parent set the server registers (RegisterSharedSet id 1).
inline SetOfSets MakeServerSet() { return MakeSsrWorkload(DemoSpec()).alice; }

/// Difference bound the demo clients advertise in their hello.
inline constexpr size_t kDemoKnownD = 6;

/// Client `index`'s drifted copy of the server set: one element dropped,
/// one added — within kDemoKnownD changes.
inline SetOfSets MakeClientSet(uint64_t index) {
  SetOfSets bob = MakeServerSet();
  Rng rng(1000 + index);
  ChildSet& victim = bob[rng.NextU64() % bob.size()];
  if (victim.size() > 1) victim.pop_back();
  bob[rng.NextU64() % bob.size()].push_back((1ull << 42) +
                                            (rng.NextU64() & 0xffff));
  return Canonicalize(std::move(bob));
}

/// One complete remote client session against a `--listen` demo server:
/// hello (set id 1, demo params) followed by Bob's half over the connected
/// fd. THE client code path — example_sync_client and the server's
/// --selftest-net both call this, so the selftest exercises exactly what
/// the real client runs.
inline Result<SsrOutcome> RunDemoClientSession(int fd, SsrProtocolKind kind,
                                               uint64_t index) {
  HelloSpec hello;
  hello.protocol = kind;
  hello.set_id = 1;  // The demo server registers exactly one shared set.
  hello.params = DemoParams();
  hello.known_d = kDemoKnownD;
  if (Status s = SendHello(fd, hello); !s.ok()) return s;
  SetOfSets bob = MakeClientSet(index);
  std::unique_ptr<SetsOfSetsProtocol> protocol =
      MakeSsrProtocol(kind, hello.params);
  Channel channel;
  return RunBobHalfOverFd(*protocol, bob, hello.known_d, fd, &channel);
}

/// Traced variant for the operator console's --probe: owns the whole
/// connect→hello→protocol arc so the client timeline has spans for every
/// leg. The hello carries `trace_id`, so the server tags its
/// half of the session with the same id; the caller fetches that half via
/// QueryTracesOverFd and merges the two (obs/trace_text.h). `tracer` must
/// have capture armed (SessionTracer::EnableCapture) and `trace_id` must
/// be nonzero. The demo state is built before the session span opens, so
/// the span decomposes the session's network wall clock, not the fixture.
inline Result<SsrOutcome> RunDemoClientSessionTraced(
    const std::string& host, uint16_t port, SsrProtocolKind kind,
    uint64_t index, uint64_t trace_id, obs::SessionTracer* tracer) {
  SetOfSets bob = MakeClientSet(index);
  HelloSpec hello;
  hello.protocol = kind;
  hello.set_id = 1;
  hello.params = DemoParams();
  hello.known_d = kDemoKnownD;
  hello.trace_id = trace_id;
  std::unique_ptr<SetsOfSetsProtocol> protocol =
      MakeSsrProtocol(kind, hello.params);

  const uint64_t start = obs::NowNanos();
  tracer->Record(trace_id, obs::TracePhase::kSession, true, start, trace_id);
  tracer->Record(trace_id, obs::TracePhase::kConnect, true, obs::NowNanos(),
                 trace_id);
  Result<int> fd = ConnectTcp(host, port);
  tracer->Record(trace_id, obs::TracePhase::kConnect, false, obs::NowNanos(),
                 trace_id);
  if (!fd.ok()) return fd.status();
  tracer->Record(trace_id, obs::TracePhase::kHello, true, obs::NowNanos(),
                 trace_id);
  Status hello_sent = SendHello(fd.value(), hello);
  tracer->Record(trace_id, obs::TracePhase::kHello, false, obs::NowNanos(),
                 trace_id);
  if (!hello_sent.ok()) {
    ::close(fd.value());
    return hello_sent;
  }
  Channel channel;
  Result<SsrOutcome> outcome = RunBobHalfOverFd(
      *protocol, bob, hello.known_d, fd.value(), &channel, tracer, trace_id);
  const uint64_t end = obs::NowNanos();
  tracer->Record(trace_id, obs::TracePhase::kSession, false, end, trace_id);
  tracer->OnSessionEnd(trace_id, trace_id, end - start, "client", stderr);
  ::close(fd.value());
  return outcome;
}

}  // namespace net_demo
}  // namespace setrec

#endif  // SETREC_EXAMPLES_NET_DEMO_H_
