// lock-rank / lock-blocking — flow-aware RankedMutex discipline.
//
// Pass 1 walks every function body collecting (a) the minimum rank it
// acquires directly, (b) whether it directly performs a blocking
// operation (kvstore/fabric traffic, barrier/condition waits, sleeps,
// joins), and (c) its resolved call edges. A fixpoint then propagates
// min-acquired-rank and may-block through the call graph. Pass 2
// re-walks each body tracking the held-lock set through guard scopes,
// explicit lock()/unlock() and condition waits, and reports:
//   lock-rank     — acquiring a rank <= one already held (directly or
//                   via a callee's propagated min rank),
//   lock-blocking — a blocking operation or opaque callback invoked
//                   while any lock is held (a condition wait is fine
//                   when the waited guard is the only lock held).
//
// Invoking an opaque std::function is checked at the call site only —
// it is NOT treated as "blocking" for propagation, because callees that
// receive the caller's UniqueLock (the *_locked convention) drop it
// around callback windows, which a name-level propagation cannot see.
#include <algorithm>
#include <climits>
#include <string>
#include <vector>

#include "analyze/checkers.h"
#include "analyze/walk.h"

namespace hetsim::analyze {

namespace {

constexpr int kInf = INT_MAX;

const std::set<std::string> kGuardTypes = {
    "lock_guard", "unique_lock", "scoped_lock", "LockGuard", "UniqueLock"};

const std::set<std::string> kMutexTypes = {
    "RankedMutex", "mutex",       "recursive_mutex",
    "shared_mutex", "timed_mutex"};

/// Blocking regardless of receiver: simulated network round-trips,
/// queue drains and barrier arrivals.
const std::set<std::string> kAlwaysBlocking = {
    "execute",     "round_trip",      "drain",
    "flush_queue", "enqueue",         "put_many",
    "get_many",    "fan_out",         "read_with_fallback",
    "replica_op",  "arrive_and_wait", "round_trip_cost"};

/// Blocking only when the receiver resolves to a client-side class
/// (the same names exist as non-blocking Store methods).
const std::set<std::string> kReceiverBlocking = {
    "get",  "set",    "del",    "rpush", "lrange", "llen", "lindex",
    "incrby", "counter", "exists", "wait", "put",  "send", "recv"};

const std::set<std::string> kBlockingReceivers = {"Client", "Barrier",
                                                  "Fabric"};

const std::set<std::string> kSleepy = {"sleep_for", "sleep_until", "join"};

struct FnInfo {
  int min_acq = kInf;
  bool blocking = false;
  std::vector<std::size_t> callees;
};

struct HeldLock {
  std::string guard;  // guard variable ("" for direct mutex .lock())
  std::string mux;    // mutex expression text, for messages
  int rank = -1;      // -1 = unknown
  int depth = 0;      // brace depth of the declaration
  int line = 0;
  bool active = true;
};

bool punct(const Token& t, const char* s) {
  return t.kind == Tk::kPunct && t.text == s;
}

std::string rank_name(const Index& idx, int rank) {
  for (const auto& [name, value] : idx.lock_ranks) {
    if (value == rank) return name + " (" + std::to_string(rank) + ")";
  }
  return "rank " + std::to_string(rank);
}

class LockWalker {
 public:
  LockWalker(const Resolver& resolver, const std::vector<FnInfo>* fixed,
             FnInfo* direct, std::vector<Finding>* out)
      : r_(resolver),
        idx_(resolver.index()),
        fixed_(fixed),
        direct_(direct),
        out_(out) {}

  void walk(std::size_t fid) {
    fn_ = &idx_.funcs[fid];
    file_ = &idx_.files[fn_->file];
    toks_ = &file_->tokens;
    locals_ = r_.collect_locals(*fn_);
    held_.clear();
    depth_ = 0;
    const std::vector<Token>& t = *toks_;
    std::size_t i = fn_->body_begin;
    while (i <= fn_->body_end && i < t.size()) {
      if (punct(t[i], "{")) {
        ++depth_;
        ++i;
        continue;
      }
      if (punct(t[i], "}")) {
        --depth_;
        std::erase_if(held_,
                      [&](const HeldLock& h) { return h.depth > depth_; });
        ++i;
        continue;
      }
      if (punct(t[i], "[")) {
        // A lambda's body does not execute where it is written; walking
        // it under the current held-lock set would flag deferred work
        // (queued tasks, stored callbacks) as blocking-under-lock.
        const std::size_t after = skip_lambda(t, i);
        if (after != 0) {
          i = after;
          continue;
        }
      }
      if (t[i].kind == Tk::kIdent && kGuardTypes.count(t[i].text) != 0) {
        const std::size_t next = try_guard_decl(i);
        if (next != 0) {
          i = next;
          continue;
        }
      }
      if (t[i].kind == Tk::kIdent && i + 1 < t.size() && punct(t[i + 1], "(")) {
        CallSite call;
        if (r_.parse_call(*fn_, locals_, i, call)) {
          handle_call(call);
          // Walk INTO the argument list (nested calls), not past it.
          ++i;
          continue;
        }
      }
      ++i;
    }
  }

 private:
  /// Token i is '['. When it introduces a lambda — `[caps](params){...}`
  /// or `[caps]{...}` — return the index just past the body's '}';
  /// return 0 for subscripts and anything else.
  static std::size_t skip_lambda(const std::vector<Token>& t, std::size_t i) {
    std::size_t j = i;
    int depth = 0;
    while (j < t.size()) {
      if (punct(t[j], "[")) ++depth;
      if (punct(t[j], "]") && --depth == 0) break;
      ++j;
    }
    if (j >= t.size()) return 0;
    ++j;
    if (j < t.size() && punct(t[j], "(")) j = match_paren(t, j) + 1;
    // Specifiers / trailing return type: a short run of idents and
    // type punctuation is allowed before the body brace.
    std::size_t budget = 8;
    while (j < t.size() && budget-- > 0) {
      const Token& tok = t[j];
      if (punct(tok, "{")) return match_brace(t, j) + 1;
      const bool spec =
          tok.kind == Tk::kIdent || punct(tok, "->") || punct(tok, "::") ||
          punct(tok, "<") || punct(tok, ">") || punct(tok, "&") ||
          punct(tok, "*") || punct(tok, ",");
      if (!spec) return 0;
      ++j;
    }
    return 0;
  }

  bool any_held() const {
    return std::any_of(held_.begin(), held_.end(),
                       [](const HeldLock& h) { return h.active; });
  }

  const HeldLock* find_guard(const std::string& var) const {
    for (auto it = held_.rbegin(); it != held_.rend(); ++it) {
      if (it->guard == var) return &*it;
    }
    return nullptr;
  }

  void report(const char* rule, int line, std::string message) {
    if (out_ != nullptr) {
      out_->push_back({rule, file_->rel, line, std::move(message)});
    }
  }

  /// Rank-order check for acquiring `mux` (rank `rank`) at `line`,
  /// then record the acquisition.
  void acquire(std::string guard, std::string mux, int rank, int line) {
    if (rank != -1) {
      for (const HeldLock& h : held_) {
        if (!h.active || h.rank == -1) continue;
        if (rank <= h.rank) {
          report("lock-rank", line,
                 "acquires '" + mux + "' at " + rank_name(idx_, rank) +
                     " while holding '" + h.mux + "' at " +
                     rank_name(idx_, h.rank) +
                     "; ranks must strictly increase down the hierarchy");
        }
      }
      if (direct_ != nullptr) direct_->min_acq = std::min(direct_->min_acq, rank);
    }
    held_.push_back({std::move(guard), std::move(mux), rank, depth_, line, true});
  }

  /// Resolve a mutex expression [b, e) to (text, rank).
  std::pair<std::string, int> resolve_mutex(std::size_t b, std::size_t e) {
    const std::vector<Token>& t = *toks_;
    std::string text;
    for (std::size_t i = b; i < e; ++i) text += t[i].text;
    // Trailing `X . M` / `X -> M` / lone `M`.
    std::size_t m = e;
    while (m > b && t[m - 1].kind != Tk::kIdent) --m;
    if (m == b) return {text, -1};
    const std::string mux = t[m - 1].text;
    if (m >= 3 + b && (punct(t[m - 2], ".") || punct(t[m - 2], "->")) &&
        t[m - 3].kind == Tk::kIdent) {
      const std::string owner = t[m - 3].text;
      const std::string type =
          owner == "this" ? fn_->klass : r_.type_of(*fn_, locals_, owner);
      return {text, idx_.mutex_rank(r_.class_key(type), mux)};
    }
    return {text, idx_.mutex_rank(fn_->klass, mux)};
  }

  /// Token i names a guard type. Returns resume index past the
  /// declaration, or 0 when this is not a guard declaration.
  std::size_t try_guard_decl(std::size_t i) {
    const std::vector<Token>& t = *toks_;
    std::size_t j = i + 1;
    if (j < t.size() && punct(t[j], "<")) {  // template argument list
      int angle = 0;
      while (j < t.size()) {
        if (punct(t[j], "<")) ++angle;
        if (punct(t[j], ">") && --angle == 0) break;
        ++j;
      }
      ++j;
    }
    if (j >= t.size() || t[j].kind != Tk::kIdent) return 0;
    const std::string var = t[j].text;
    if (j + 1 >= t.size() ||
        !(punct(t[j + 1], "(") || punct(t[j + 1], "{"))) {
      return 0;
    }
    const bool paren = punct(t[j + 1], "(");
    const std::size_t open = j + 1;
    const std::size_t close =
        paren ? match_paren(t, open) : match_brace(t, open);
    // Comma-split the mutex list (scoped_lock takes several).
    std::size_t b = open + 1;
    int nest = 0;
    for (std::size_t k = open + 1; k <= close; ++k) {
      if (punct(t[k], "(") || punct(t[k], "{")) ++nest;
      if (punct(t[k], ")") || punct(t[k], "}")) {
        if (k != close) {
          --nest;
          continue;
        }
      }
      if ((k == close && nest == 0) || (punct(t[k], ",") && nest == 0)) {
        if (k > b) {
          auto [text, rank] = resolve_mutex(b, k);
          acquire(var, text, rank, t[i].line);
        }
        b = k + 1;
      }
    }
    return close + 1;
  }

  void handle_call(const CallSite& call) {
    const std::vector<Token>& t = *toks_;
    const int line = t[call.name_at].line;

    // Guard-variable operations: lk.unlock() / lk.lock() / cv.wait(lk).
    if (call.has_receiver && !call.receiver.empty()) {
      if (const HeldLock* g = find_guard(call.receiver)) {
        if (call.name == "unlock") {
          for (auto& h : held_) {
            if (h.guard == call.receiver) h.active = false;
          }
          return;
        }
        if (call.name == "lock") {
          for (auto& h : held_) {
            if (h.guard == call.receiver && !h.active) {
              h.active = true;
              // Re-acquisition must respect ranks vs what else is held.
              for (const HeldLock& o : held_) {
                if (!o.active || &o == &h || o.rank == -1 || h.rank == -1)
                  continue;
                if (h.rank <= o.rank) {
                  report("lock-rank", line,
                         "re-acquires '" + h.mux + "' at " +
                             rank_name(idx_, h.rank) + " while holding '" +
                             o.mux + "' at " + rank_name(idx_, o.rank));
                }
              }
            }
          }
          return;
        }
        (void)g;
      }
    }

    // Condition wait: cv.wait(lk[, ...]). Fine iff the waited guard is
    // the only lock held (wait atomically releases exactly that one).
    if (call.name == "wait" && call.has_receiver &&
        call.open + 1 < t.size() && t[call.open + 1].kind == Tk::kIdent) {
      if (const HeldLock* g = find_guard(t[call.open + 1].text)) {
        for (const HeldLock& h : held_) {
          if (h.active && h.guard != g->guard) {
            report("lock-blocking", line,
                   "condition wait releases only '" + g->mux +
                       "' but '" + h.mux + "' is also held");
          }
        }
        if (direct_ != nullptr) direct_->blocking = true;
        return;
      }
    }

    // Direct mutex lock()/unlock() (no guard object).
    if ((call.name == "lock" || call.name == "unlock") && call.has_receiver &&
        !call.receiver.empty()) {
      const std::string type = r_.type_of(*fn_, locals_, call.receiver);
      const int rank = idx_.mutex_rank(fn_->klass, call.receiver);
      if (kMutexTypes.count(type) != 0 || rank != -1) {
        if (call.name == "lock") {
          acquire("", call.receiver, rank, line);
        } else {
          std::erase_if(held_, [&](const HeldLock& h) {
            return h.guard.empty() && h.mux == call.receiver;
          });
        }
        return;
      }
    }

    // Blocking primitives.
    bool blocks = false;
    std::string what;
    if (kAlwaysBlocking.count(call.name) != 0) {
      blocks = true;
      what = "'" + call.name + "' (simulated network/queue round-trip)";
    } else if (kReceiverBlocking.count(call.name) != 0 &&
               kBlockingReceivers.count(
                   r_.class_key(call.receiver_type)) != 0) {
      blocks = true;
      what = "'" + call.receiver + "." + call.name + "' (" +
             call.receiver_type + " traffic)";
    } else if (kSleepy.count(call.name) != 0) {
      blocks = true;
      what = "'" + call.name + "'";
    }
    if (blocks) {
      if (direct_ != nullptr) direct_->blocking = true;
      report_blocking(line, what);
      return;
    }

    // Opaque callback invocation: a variable/member of std::function
    // type (or an alias of one). Checked at the call site only.
    if (!call.has_receiver && !call.qualified) {
      const std::string type = r_.type_of(*fn_, locals_, call.name);
      if (type == "function" || idx_.callable_aliases.count(type) != 0) {
        report_blocking(line, "opaque callback '" + call.name +
                                  "' (may issue blocking traffic)");
        return;
      }
    }

    // Resolved callees: record edges (pass 1) and propagate knowledge
    // (pass 2).
    const std::vector<std::size_t> callees = r_.callees(*fn_, call);
    if (callees.empty()) return;
    if (direct_ != nullptr) {
      direct_->callees.insert(direct_->callees.end(), callees.begin(),
                              callees.end());
    }
    if (fixed_ == nullptr) return;
    int callee_min = kInf;
    bool callee_blocks = false;
    for (const std::size_t c : callees) {
      callee_min = std::min(callee_min, (*fixed_)[c].min_acq);
      callee_blocks = callee_blocks || (*fixed_)[c].blocking;
    }
    if (callee_blocks) {
      report_blocking(line, "call to '" + call.name +
                                "' which blocks (directly or transitively)");
    }
    if (callee_min != kInf) {
      for (const HeldLock& h : held_) {
        if (!h.active || h.rank == -1) continue;
        if (callee_min <= h.rank) {
          report("lock-rank", line,
                 "call to '" + call.name + "' may acquire " +
                     rank_name(idx_, callee_min) + " while holding '" +
                     h.mux + "' at " + rank_name(idx_, h.rank));
        }
      }
    }
  }

  void report_blocking(int line, const std::string& what) {
    for (const HeldLock& h : held_) {
      if (!h.active) continue;
      report("lock-blocking", line,
             "blocking operation " + what + " while holding '" + h.mux + "'");
      return;  // one finding per site, against the first held lock
    }
  }

  const Resolver& r_;
  const Index& idx_;
  const std::vector<FnInfo>* fixed_;
  FnInfo* direct_;
  std::vector<Finding>* out_;
  const FunctionDef* fn_ = nullptr;
  const SourceFile* file_ = nullptr;
  const std::vector<Token>* toks_ = nullptr;
  LocalTypes locals_;
  std::vector<HeldLock> held_;
  int depth_ = 0;
};

}  // namespace

void check_locks(const Index& index, std::vector<Finding>& out) {
  const Resolver resolver(index);
  // Pass 1: per-function direct facts + call edges.
  std::vector<FnInfo> info(index.funcs.size());
  for (std::size_t i = 0; i < index.funcs.size(); ++i) {
    LockWalker walker(resolver, nullptr, &info[i], nullptr);
    walker.walk(i);
  }
  // Fixpoint: propagate min-acquired rank and may-block over edges.
  bool changed = true;
  while (changed) {
    changed = false;
    for (FnInfo& f : info) {
      for (const std::size_t c : f.callees) {
        if (info[c].min_acq < f.min_acq) {
          f.min_acq = info[c].min_acq;
          changed = true;
        }
        if (info[c].blocking && !f.blocking) {
          f.blocking = true;
          changed = true;
        }
      }
    }
  }
  // Pass 2: report with held-lock tracking.
  for (std::size_t i = 0; i < index.funcs.size(); ++i) {
    LockWalker walker(resolver, &info, nullptr, &out);
    walker.walk(i);
  }
}

}  // namespace hetsim::analyze
