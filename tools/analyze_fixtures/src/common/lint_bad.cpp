// Token-level rule fixtures. This file's fixture-relative path starts
// with src/common/, which switches on every dir-gated token-level rule.
// It also seeds the discarded-reply forms status-flow catches.

namespace fxlint {

std::mutex legacy_guard;  // expect: naked-mutex
std::condition_variable* legacy_cv = nullptr;  // expect: naked-mutex

std::thread legacy_worker;  // expect: raw-thread
std::jthread* legacy_jworker = nullptr;  // expect: raw-thread

int roll() { return rand(); }  // expect: nondeterminism

int entropy() {
  std::random_device rd;  // expect: nondeterminism
  return static_cast<int>(rd());
}

long wall_clock() {
  return std::chrono::steady_clock::now().time_since_epoch().count();  // expect: nondeterminism
}

float energy_j = 0.0F;  // expect: float-accounting

void poke(kvstore::Store& store) {  // expect: direct-store
  store.set("k", "v");
}

// A kvstore client's batch replies carry the status the fault layer
// reports through; casting them away swallows it.
struct Reply {
  int status = 0;
};

class FakeClient {
 public:
  Reply drain() { return Reply{}; }
  Reply execute(int) { return Reply{}; }
};

void discard_replies(FakeClient& c) {
  (void)c.drain();  // expect: status-flow
  (void)c.execute(0);  // expect: status-flow
}

}  // namespace fxlint
