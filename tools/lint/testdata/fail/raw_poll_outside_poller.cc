// LINT-TEST-PATH: src/net/net_pump.cc
// LINT-TEST: expect raw-poll
//
// The pump must go through the Poller interface; a direct epoll_wait here
// would tie it to epoll and skip the poll fallback.

int Pump() {
  int n = epoll_wait(3, nullptr, 16, 10);
  return n;
}
