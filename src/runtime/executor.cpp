#include "runtime/executor.h"

#include <condition_variable>
#include <deque>
#include <mutex>
#include <thread>

#include "check/check.h"
#include "check/ranked_mutex.h"
#include "common/error.h"
#include "common/rng.h"
#include "fault/fault.h"

namespace hetsim::runtime {

double ExecutorReport::total_work_units() const noexcept {
  double total = 0.0;
  for (const auto& p : per_node) total += p.work_units;
  return total;
}

struct PhaseExecutor::State {
  // Outermost rank. Guards admission (current/done) and the accounting
  // below; NOT held across chunk execution or checkpoint callbacks —
  // the admission token keeps those serial (see worker()), and holding
  // a lock across blocking kvstore/fabric traffic is exactly what
  // tools/hetsim_analyze's lock-blocking rule rejects.
  check::RankedMutex mu{check::LockRank::kScheduler,
                        "runtime::PhaseExecutor"};
  std::condition_variable_any cv;
  std::vector<std::deque<std::uint32_t>> queues;
  std::vector<double> clock;
  std::vector<NodeProgress> progress;
  std::vector<double> slowdown;
  std::vector<std::uint64_t> priority;  // seeded scheduler tie-break
  std::vector<std::unique_ptr<cluster::NodeContext>> contexts;
  std::vector<double> units_seen;    // last settled meter reading
  std::vector<double> network_seen;  // last settled client time
  std::vector<char> dead;            // fail-stopped (thread exited)
  std::vector<double> heartbeat;     // virtual time of last sign of life
  std::vector<double> max_chunk_s;   // largest own chunk duration, per node
  std::uint64_t mutations = 0;       // queue-mutation epoch (rescue progress)
  std::size_t taken = 0;             // records removed via take_* calls
  std::size_t given = 0;             // records re-queued via give()
  std::exception_ptr error;          // first worker-thread exception
  std::uint32_t current = 0;
  bool done = false;
};

PhaseExecutor::PhaseExecutor(cluster::Cluster& cluster,
                             std::vector<std::vector<std::uint32_t>> queues,
                             ChunkRunner runner, ExecutorOptions options)
    : cluster_(cluster),
      options_(std::move(options)),
      runner_(std::move(runner)),
      state_(std::make_unique<State>()) {
  const std::size_t p = cluster_.size();
  common::require<common::ConfigError>(queues.size() == p,
                                       "PhaseExecutor: one queue per node");
  common::require<common::ConfigError>(options_.chunk_records >= 1,
                                       "PhaseExecutor: chunk_records >= 1");
  common::require<common::ConfigError>(
      options_.per_node_slowdown.empty() ||
          options_.per_node_slowdown.size() == p,
      "PhaseExecutor: per_node_slowdown size mismatch");
  common::require<common::ConfigError>(static_cast<bool>(runner_),
                                       "PhaseExecutor: null chunk runner");
  state_->queues.resize(p);
  for (std::size_t i = 0; i < p; ++i) {
    state_->queues[i].assign(queues[i].begin(), queues[i].end());
  }
  state_->clock.assign(p, 0.0);
  state_->progress.assign(p, NodeProgress{});
  state_->units_seen.assign(p, 0.0);
  state_->network_seen.assign(p, 0.0);
  state_->slowdown = options_.per_node_slowdown;
  if (state_->slowdown.empty()) state_->slowdown.assign(p, 1.0);
  if (options_.fault != nullptr && options_.fault->enabled()) {
    for (std::size_t i = 0; i < p; ++i) {
      state_->slowdown[i] *=
          options_.fault->slowdown_factor(static_cast<std::uint32_t>(i));
    }
  }
  for (const double s : state_->slowdown) {
    common::require<common::ConfigError>(s > 0.0,
                                         "PhaseExecutor: slowdown must be > 0");
  }
  common::require<common::ConfigError>(options_.heartbeat_timeout_s >= 0.0,
                                       "PhaseExecutor: heartbeat timeout < 0");
  state_->dead.assign(p, 0);
  state_->heartbeat.assign(p, 0.0);
  state_->max_chunk_s.assign(p, 0.0);
  common::Rng rng(options_.seed);
  state_->priority.resize(p);
  for (auto& pr : state_->priority) pr = rng();
  state_->contexts.reserve(p);
  for (std::size_t i = 0; i < p; ++i) {
    state_->contexts.push_back(std::make_unique<cluster::NodeContext>(
        cluster_, cluster_.nodes()[i]));
  }
}

PhaseExecutor::~PhaseExecutor() = default;

std::uint32_t PhaseExecutor::pick_next_locked() const {
  const std::size_t p = state_->queues.size();
  std::uint32_t best = static_cast<std::uint32_t>(p);
  for (std::uint32_t i = 0; i < p; ++i) {
    if (state_->dead[i] != 0) continue;
    if (state_->queues[i].empty()) continue;
    if (best == p) {
      best = i;
      continue;
    }
    const double tb = state_->clock[best];
    const double ti = state_->clock[i];
    if (ti < tb ||
        (ti == tb && state_->priority[i] < state_->priority[best])) {
      best = i;
    }
  }
  return best;
}

double PhaseExecutor::sync_network(std::uint32_t node) {
  const double now = state_->contexts[node]->network_time();
  const double delta = now - state_->network_seen[node];
  state_->network_seen[node] = now;
  state_->clock[node] += delta;
  state_->progress[node].network_s += delta;
  // Settled traffic counts as a sign of life: a node charged for
  // migration transfers inside a checkpoint must not look silent just
  // because it hasn't run a chunk of its own since.
  state_->heartbeat[node] = state_->clock[node];
  return delta;
}

void PhaseExecutor::worker(std::uint32_t node) {
  State& s = *state_;
  check::UniqueLock lk(s.mu);
  for (;;) {
    while (!s.done && s.current != node) s.cv.wait(lk);
    if (s.done) return;
    try {
      // Fail-stop fires at the chunk boundary: the node is admitted,
      // finds its planned death time has arrived, and vanishes without
      // processing or announcing anything. Its queue stays as-is — the
      // orphaned records are only recoverable through a checkpoint
      // callback noticing the missed heartbeats.
      if (options_.fault != nullptr && options_.fault->enabled() &&
          s.dead[node] == 0 && options_.fault->has_fail_stop(node) &&
          s.clock[node] >= options_.fault->fail_stop_time_s(node)) {
        s.dead[node] = 1;
        hand_off_locked(lk);
        return;  // the thread exits; dead nodes are never picked again
      }
      // This node holds the scheduler token: run one chunk. Admission is
      // one-at-a-time by construction — serial execution is what makes
      // the interleaving reproducible.
      auto& queue = s.queues[node];
      // Tail absorption: a sub-chunk remainder would hand the workload a
      // degenerate unit of work (for SON mining, a tiny transaction set
      // collapses the local support threshold to ~1 and the candidate
      // space explodes). If what's left fits in 1.5 chunks, take it all.
      const std::size_t take =
          queue.size() <= options_.chunk_records + options_.chunk_records / 2
              ? queue.size()
              : options_.chunk_records;
      std::vector<std::uint32_t> chunk;
      chunk.reserve(take);
      while (chunk.size() < take) {
        chunk.push_back(queue.front());
        queue.pop_front();
      }
      const double before = s.clock[node];
      cluster::NodeContext& ctx = *s.contexts[node];
      // Drawn under the scheduler lock: admission order is deterministic,
      // so is the cluster's jitter stream.
      const double speed = cluster_.phase_speed(ctx.node());
      // The chunk body issues blocking work (simulated kvstore/fabric
      // round trips), so the scheduler lock is RELEASED around it. That
      // does not admit anyone else: s.current still names this node, and
      // parked workers only re-check s.done/s.current under the lock —
      // they never touch the accounting the chunk updates. The mutex
      // hand-off (release here, re-acquire below, release at the next
      // hand_off) carries the happens-before edge to whichever thread is
      // admitted next.
      lk.unlock();
      try {
        runner_(ctx, chunk);
      } catch (const common::Error&) {
        // A typed fault inside the chunk body (workload kvstore traffic
        // that exhausted its retries) is contained to this node: the
        // chunk goes back to the queue in order, the partial compute
        // and network time it burned are charged, and the node
        // fail-stops — the heartbeat machinery then rescues its queue
        // exactly like an injected fail-stop. Anything not typed
        // (logic errors) still reaches the catch below and fails the
        // run loudly.
        lk.lock();
        for (auto it = chunk.rbegin(); it != chunk.rend(); ++it) {
          queue.push_front(*it);
        }
        const double units = ctx.meter().units() - s.units_seen[node];
        s.units_seen[node] = ctx.meter().units();
        s.clock[node] +=
            cluster_.options().work_rate.seconds(units, speed) *
            s.slowdown[node];
        sync_network(node);
        s.dead[node] = 1;
        hand_off_locked(lk);
        return;
      }
      lk.lock();
      const double units = ctx.meter().units() - s.units_seen[node];
      s.units_seen[node] = ctx.meter().units();
      const double compute =
          cluster_.options().work_rate.seconds(units, speed) *
          s.slowdown[node];
      s.clock[node] += compute;
      NodeProgress& prog = s.progress[node];
      prog.records_done += chunk.size();
      prog.work_units += units;
      prog.compute_s += compute;
      prog.chunks += 1;
      sync_network(node);
      // Update the detection threshold before the checkpoint runs so the
      // auto heartbeat timeout already covers this chunk's duration.
      s.max_chunk_s[node] =
          std::max(s.max_chunk_s[node], s.clock[node] - before);
      s.heartbeat[node] = s.clock[node];
      if (checkpoint_) {
        // Checkpoints migrate data through kvstore/ha clients — more
        // blocking traffic, same token argument as the chunk body above.
        lk.unlock();
        checkpoint_(node);
        lk.lock();
      }
      if (!hand_off_locked(lk)) return;
    } catch (...) {
      // A checkpoint callback (or workload) threw on a worker thread —
      // possibly inside an unlocked callback window, so re-acquire
      // before touching shared state. Record the first exception and
      // shut the phase down; run() rethrows it on the caller's thread.
      if (!lk.owns_lock()) lk.lock();
      if (!s.error) s.error = std::current_exception();
      s.done = true;
      s.cv.notify_all();
      return;
    }
  }
}

bool PhaseExecutor::hand_off_locked(check::UniqueLock& lk) {
  State& s = *state_;
  std::uint32_t next = pick_next_locked();
  if (next == s.queues.size()) next = rescue_locked(lk);
  if (next == s.queues.size()) {
    s.done = true;
    s.cv.notify_all();
    return false;
  }
  s.current = next;
  s.cv.notify_all();
  return true;
}

std::uint32_t PhaseExecutor::rescue_locked(check::UniqueLock& lk) {
  State& s = *state_;
  const std::size_t p = s.queues.size();
  const auto none = static_cast<std::uint32_t>(p);
  if (!checkpoint_) return none;
  for (;;) {
    std::uint32_t rescuer = none;
    for (std::uint32_t i = 0; i < p; ++i) {
      if (s.dead[i] != 0) continue;
      if (rescuer == none || s.clock[i] < s.clock[rescuer]) rescuer = i;
    }
    if (rescuer == none) return none;  // everyone is dead
    // Records stranded on dead nodes? Without this path the phase would
    // end (no live node is runnable) and silently lose them.
    double horizon = -1.0;
    for (std::uint32_t d = 0; d < p; ++d) {
      if (s.dead[d] == 0 || s.queues[d].empty()) continue;
      // Push the rescuer's clock far enough past the dead node's last
      // heartbeat that detection's strict `>` comparison cannot sit on
      // the boundary: 1.125 is exact in binary, so the margin survives
      // rounding.
      horizon = std::max(
          horizon, s.heartbeat[d] + 1.125 * heartbeat_timeout(rescuer));
    }
    if (horizon < 0.0) return none;
    const std::uint64_t before = s.mutations;
    s.clock[rescuer] = std::max(s.clock[rescuer], horizon);
    s.heartbeat[rescuer] = s.clock[rescuer];
    // Same unlocked-callback window as worker(): the rescuer thread is
    // the only one running (no node is runnable), so dropping the lock
    // around the blocking checkpoint traffic is race-free. On throw the
    // exception unwinds to worker()'s catch, which re-acquires.
    lk.unlock();
    checkpoint_(rescuer);
    lk.lock();
    if (s.mutations == before) return none;  // callback won't reassign
    const std::uint32_t next = pick_next_locked();
    if (next != none) return next;
  }
}

ExecutorReport PhaseExecutor::run() {
  State& s = *state_;
  const std::size_t p = s.queues.size();
  {
    check::LockGuard lk(s.mu);
    const std::uint32_t first = pick_next_locked();
    if (first == p) {
      s.done = true;  // nothing to do anywhere
    } else {
      s.current = first;
    }
  }
  std::vector<std::thread> threads;
  threads.reserve(p);
  for (std::uint32_t i = 0; i < p; ++i) {
    threads.emplace_back([this, i] { worker(i); });
  }
  {
    check::LockGuard lk(s.mu);
    s.cv.notify_all();
  }
  for (auto& t : threads) t.join();
  if (s.error) std::rethrow_exception(s.error);
  // No work lost in transit: every record a checkpoint callback took out
  // of a queue must have been put back into one.
  HETSIM_CHECK_EQ(s.taken, s.given);
  ExecutorReport report;
  report.per_node = s.progress;
  for (const double t : s.clock) {
    report.makespan_s = std::max(report.makespan_s, t);
  }
  for (const auto& q : s.queues) report.unprocessed += q.size();
  return report;
}

const NodeProgress& PhaseExecutor::progress(std::uint32_t node) const {
  return state_->progress.at(node);
}

double PhaseExecutor::node_time(std::uint32_t node) const {
  return state_->clock.at(node);
}

std::size_t PhaseExecutor::remaining(std::uint32_t node) const {
  return state_->queues.at(node).size();
}

std::size_t PhaseExecutor::total_remaining() const {
  std::size_t total = 0;
  for (const auto& q : state_->queues) total += q.size();
  return total;
}

std::vector<std::uint32_t> PhaseExecutor::take_from_tail(std::uint32_t node,
                                                         std::size_t count) {
  auto& queue = state_->queues.at(node);
  std::vector<std::uint32_t> taken;
  taken.reserve(std::min(count, queue.size()));
  while (!queue.empty() && taken.size() < count) {
    taken.push_back(queue.back());
    queue.pop_back();
  }
  if (!taken.empty()) {
    state_->taken += taken.size();
    ++state_->mutations;
  }
  return taken;
}

std::vector<std::uint32_t> PhaseExecutor::take_all(std::uint32_t node) {
  auto& queue = state_->queues.at(node);
  std::vector<std::uint32_t> taken(queue.begin(), queue.end());
  queue.clear();
  if (!taken.empty()) {
    state_->taken += taken.size();
    ++state_->mutations;
  }
  return taken;
}

void PhaseExecutor::give(std::uint32_t node,
                         std::span<const std::uint32_t> records) {
  auto& queue = state_->queues.at(node);
  queue.insert(queue.end(), records.begin(), records.end());
  if (!records.empty()) {
    state_->given += records.size();
    ++state_->mutations;
  }
}

double PhaseExecutor::heartbeat(std::uint32_t node) const {
  return state_->heartbeat.at(node);
}

double PhaseExecutor::heartbeat_timeout(std::uint32_t observer) const {
  if (options_.heartbeat_timeout_s > 0.0) return options_.heartbeat_timeout_s;
  // Auto rule: when `observer` checkpoints, every live node with work
  // had a clock at least as large as the observer's pre-chunk clock
  // (min-clock admission would have run it first), so a live node's
  // heartbeat lags by at most the observer's own chunk duration. 3x
  // that cannot produce a false positive — and deliberately excludes
  // OTHER nodes' chunk durations, so one slow node's long chunks do
  // not delay every survivor's detection of a fast node's death. The
  // floor covers the degenerate case where the observer has not
  // completed a chunk yet (only reachable through the rescue path,
  // where every remaining record provably belongs to a dead node).
  return std::max(3.0 * state_->max_chunk_s.at(observer), 1e-3);
}

cluster::NodeContext& PhaseExecutor::context(std::uint32_t node) {
  return *state_->contexts.at(node);
}

}  // namespace hetsim::runtime
