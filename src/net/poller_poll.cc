// The portable fallback backend: one ::poll(2) call per Wait over the
// whole registration table. O(watched fds) per wakeup — the cost model
// the epoll backend exists to beat — but it runs on platforms without
// <sys/epoll.h>, where MakePoller falls back to it.

#include <poll.h>

#include <cerrno>
#include <cstring>
#include <string>
#include <unordered_map>
#include <vector>

#include "net/poller.h"

namespace setrec {
namespace internal {
namespace {

class PollPoller final : public Poller {
 public:
  PollerKind kind() const override { return PollerKind::kPoll; }

  Status Add(int fd, uint32_t interest, uint64_t token) override {
    if (index_of_.count(fd) != 0) {
      return InvalidArgument("poller: fd already registered");
    }
    index_of_[fd] = fds_.size();
    pollfd entry{};
    entry.fd = fd;
    entry.events = EventsFor(interest);
    fds_.push_back(entry);
    tokens_.push_back(token);
    return Status::Ok();
  }

  Status Modify(int fd, uint32_t interest, uint64_t token) override {
    auto it = index_of_.find(fd);
    if (it == index_of_.end()) {
      return InvalidArgument("poller: fd not registered");
    }
    fds_[it->second].events = EventsFor(interest);
    tokens_[it->second] = token;
    return Status::Ok();
  }

  Status Remove(int fd) override {
    auto it = index_of_.find(fd);
    if (it == index_of_.end()) {
      return InvalidArgument("poller: fd not registered");
    }
    const size_t index = it->second;
    const size_t last = fds_.size() - 1;
    if (index != last) {
      fds_[index] = fds_[last];
      tokens_[index] = tokens_[last];
      index_of_[fds_[index].fd] = index;
    }
    fds_.pop_back();
    tokens_.pop_back();
    index_of_.erase(it);
    return Status::Ok();
  }

  Result<size_t> Wait(int timeout_ms, std::vector<PollerEvent>* out) override {
    const int ready =
        ::poll(fds_.data(), static_cast<nfds_t>(fds_.size()), timeout_ms);
    if (ready < 0) {
      if (errno == EINTR) return size_t{0};
      return Unavailable(std::string("poll: ") + strerror(errno));
    }
    size_t appended = 0;
    for (size_t i = 0; i < fds_.size() && appended < static_cast<size_t>(ready);
         ++i) {
      const short revents = fds_[i].revents;
      if (revents == 0) continue;
      PollerEvent event;
      event.token = tokens_[i];
      event.readable = (revents & POLLIN) != 0;
      event.writable = (revents & POLLOUT) != 0;
      event.hangup = (revents & (POLLERR | POLLHUP | POLLNVAL)) != 0;
      out->push_back(event);
      ++appended;
    }
    return appended;
  }

 private:
  static short EventsFor(uint32_t interest) {
    int events = 0;
    if ((interest & kRead) != 0) events |= POLLIN;
    if ((interest & kWrite) != 0) events |= POLLOUT;
    return static_cast<short>(events);
  }

  std::vector<pollfd> fds_;
  std::vector<uint64_t> tokens_;  ///< Parallel to fds_.
  std::unordered_map<int, size_t> index_of_;
};

}  // namespace

std::unique_ptr<Poller> MakePollPoller() {
  return std::make_unique<PollPoller>();
}

}  // namespace internal
}  // namespace setrec
