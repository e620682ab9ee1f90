// lock-blocking fixtures: blocking traffic issued while a RankedMutex
// is held — client round-trips, fabric exchanges, sleeps, and a
// condition wait that releases only one of two held locks.

namespace fxlock {

class HotCache {
 public:
  void refill(kvstore::Client& client) {
    check::LockGuard g(mu_);
    client.get("hot");  // expect: lock-blocking
  }

  void rebalance(net::Fabric& fabric) {
    check::LockGuard g(mu_);
    fabric.round_trip_cost(0, 4, 4096);  // expect: lock-blocking
  }

  void nap() {
    check::LockGuard g(mu_);
    std::this_thread::sleep_for(tick_);  // expect: lock-blocking
  }

  void wait_wrong() {
    check::UniqueLock outer(mu_);
    check::UniqueLock lk(cv_mu_);
    cv_.wait(lk);  // expect: lock-blocking
  }

 private:
  check::RankedMutex mu_{check::LockRank::kHa};
  check::RankedMutex cv_mu_{check::LockRank::kStore};
  std::condition_variable_any cv_;
  std::chrono::milliseconds tick_{1};
};

}  // namespace fxlock
