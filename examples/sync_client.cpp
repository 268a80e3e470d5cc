// Sync client: the remote half of a split-party reconciliation session.
// Connects to a sync_server --listen endpoint, sends the session hello,
// then drives Bob's half of the chosen protocol over the socket — the
// server hosts only Alice's half. On success the client holds the server's
// parent set, verified against the shared demo fixture.
//
//   ./build/example_sync_server --listen=tcp:7450 &
//   ./build/example_sync_client --connect=tcp:127.0.0.1:7450 --protocol=cascade --index=3
//
// Also speaks unix sockets: --connect=unix:/tmp/setrec.sock
//
// The client makes one attempt: a connect or session failure exits 1.

#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>

#include "examples/net_demo.h"
#include "net/stream_party.h"
#include "net/wire.h"
#include "service/sync_service.h"

using namespace setrec;

namespace {

bool ParseProtocol(const std::string& name, SsrProtocolKind* kind) {
  for (int i = 0; i < kSsrProtocolKindCount; ++i) {
    if (name == SsrProtocolKindName(static_cast<SsrProtocolKind>(i))) {
      *kind = static_cast<SsrProtocolKind>(i);
      return true;
    }
  }
  return false;
}

Result<int> Connect(const std::string& connect) {
  if (connect.rfind("tcp:", 0) == 0) {
    const std::string hostport = connect.substr(4);
    const size_t colon = hostport.rfind(':');
    if (colon == std::string::npos) {
      return InvalidArgument("--connect=tcp: needs HOST:PORT");
    }
    return ConnectTcp(hostport.substr(0, colon),
                      static_cast<uint16_t>(std::strtoul(
                          hostport.c_str() + colon + 1, nullptr, 10)));
  }
  if (connect.rfind("unix:", 0) == 0) return ConnectUnix(connect.substr(5));
  return InvalidArgument("unparsed --connect");
}

}  // namespace

int main(int argc, char** argv) {
  std::string connect;
  std::string protocol_name = "iblt2";
  uint64_t index = 1;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--connect=", 0) == 0) {
      connect = arg.substr(10);
    } else if (arg.rfind("--protocol=", 0) == 0) {
      protocol_name = arg.substr(11);
    } else if (arg.rfind("--index=", 0) == 0) {
      index = std::strtoull(arg.c_str() + 8, nullptr, 10);
    } else {
      std::fprintf(stderr,
                   "usage: %s --connect=tcp:HOST:PORT|unix:PATH "
                   "[--protocol=naive|iblt2|cascade|multiround] [--index=N]\n",
                   argv[0]);
      return 2;
    }
  }
  SsrProtocolKind kind;
  if (connect.empty() || !ParseProtocol(protocol_name, &kind)) {
    std::fprintf(stderr, "missing --connect or unknown --protocol\n");
    return 2;
  }

  Result<int> fd = Connect(connect);
  if (!fd.ok()) {
    std::fprintf(stderr, "connect failed: %s\n",
                 fd.status().ToString().c_str());
    return 1;
  }
  Result<SsrOutcome> outcome =
      net_demo::RunDemoClientSession(fd.value(), kind, index);
  ::close(fd.value());
  if (!outcome.ok()) {
    std::fprintf(stderr, "session failed: %s\n",
                 outcome.status().ToString().c_str());
    return 1;
  }

  const bool match =
      outcome.value().recovered == Canonicalize(net_demo::MakeServerSet());
  std::printf(
      "protocol=%s rounds=%zu bytes=%zu attempts=%d recovered=%zu children "
      "server-match=%s\n",
      SsrProtocolKindName(kind), outcome.value().stats.rounds,
      outcome.value().stats.bytes, outcome.value().stats.attempts,
      outcome.value().recovered.size(), match ? "yes" : "NO");
  return match ? 0 : 1;
}
