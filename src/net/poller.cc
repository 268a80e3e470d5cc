#include "net/poller.h"

namespace setrec {

const char* PollerKindName(PollerKind kind) {
  switch (kind) {
    case PollerKind::kPoll:
      return "poll";
    case PollerKind::kEpoll:
      return "epoll";
  }
  return "unknown";
}

std::unique_ptr<Poller> MakePoller() {
  if (auto poller = internal::MakeEpollPoller()) return poller;
  return internal::MakePollPoller();
}

}  // namespace setrec
