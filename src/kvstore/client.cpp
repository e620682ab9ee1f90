#include "kvstore/client.h"

#include <algorithm>

#include "common/error.h"
#include "fault/fault.h"
#include "kvstore/resp.h"

namespace hetsim::kvstore {

namespace {

// Wire sizes of the injected server error replies (what a RESP server
// would actually put on the socket; see RespServer::handle).
constexpr std::string_view kInjectedErrorReply = "-ERR FAULT injected error\r\n";
constexpr std::string_view kStoreDownReply = "-ERR FAULT store down\r\n";

}  // namespace

std::string_view status_name(Status s) {
  switch (s) {
    case Status::kOk:
      return "ok";
    case Status::kError:
      return "error";
    case Status::kTimeout:
      return "timeout";
    case Status::kUnavailable:
      return "unavailable";
  }
  return "?";
}

Status worse_status(Status a, Status b) {
  return static_cast<std::uint8_t>(a) >= static_cast<std::uint8_t>(b) ? a : b;
}

bool idempotent(CommandType type) {
  switch (type) {
    case CommandType::kSet:
    case CommandType::kGet:
    case CommandType::kDel:
    case CommandType::kExists:
    case CommandType::kLRange:
    case CommandType::kLLen:
    case CommandType::kLIndex:
    case CommandType::kCounter:
      return true;
    case CommandType::kRPush:
    case CommandType::kIncrBy:
      return false;
  }
  return false;
}

Reply expect_ok(Reply reply) {
  if (reply.status != Status::kOk) {
    throw UnavailableError(std::string("kvstore operation failed: status=") +
                           std::string(status_name(reply.status)));
  }
  return reply;
}

std::vector<Reply> expect_ok(std::vector<Reply> replies) {
  for (const Reply& r : replies) {
    if (r.status != Status::kOk) {
      throw UnavailableError(
          std::string("kvstore batch operation failed: status=") +
          std::string(status_name(r.status)));
    }
  }
  return replies;
}

Client::Client(net::Fabric& fabric, net::HostId self, net::HostId target,
               Store& store, std::size_t pipeline_width,
               fault::FaultInjector* fault, RetryPolicy retry)
    : fabric_(fabric),
      self_(self),
      target_(target),
      store_(store),
      pipeline_width_(pipeline_width),
      fault_(fault),
      retry_(retry),
      jitter_rng_(retry.jitter_seed ^
                  (static_cast<std::uint64_t>(self) << 32U) ^ target) {
  common::require<common::ConfigError>(pipeline_width >= 1,
                                       "Client: pipeline width must be >= 1");
  retry_.validate();
}

double Client::backoff_s(std::size_t retry) {
  double wait = retry_.base_backoff_s;
  for (std::size_t i = 1; i < retry && wait < retry_.max_backoff_s; ++i) {
    wait *= 2.0;
  }
  wait = std::min(wait, retry_.max_backoff_s);
  // Deterministic jitter in [1.0, 1.5): de-synchronizes retry storms
  // without breaking reproducibility (seeded per client).
  return wait * (1.0 + 0.5 * jitter_rng_.uniform());
}

Reply apply_command(Store& store, const Command& cmd) {
  Reply r;
  switch (cmd.type) {
    case CommandType::kSet:
      store.set(cmd.key, cmd.value);
      r.ok = true;
      break;
    case CommandType::kGet: {
      auto v = store.get(cmd.key);
      r.ok = v.has_value();
      if (v) r.blob = std::move(*v);
      break;
    }
    case CommandType::kDel:
      r.ok = store.del(cmd.key);
      break;
    case CommandType::kExists:
      r.ok = store.exists(cmd.key);
      break;
    case CommandType::kRPush:
      r.integer = static_cast<std::int64_t>(store.rpush(cmd.key, cmd.value));
      r.ok = true;
      break;
    case CommandType::kLRange:
      r.list = store.lrange(cmd.key, cmd.arg0, cmd.arg1);
      r.ok = true;
      break;
    case CommandType::kLLen:
      r.integer = static_cast<std::int64_t>(store.llen(cmd.key));
      r.ok = true;
      break;
    case CommandType::kLIndex: {
      auto v = store.lindex(cmd.key, cmd.arg0);
      r.ok = v.has_value();
      if (v) r.blob = std::move(*v);
      break;
    }
    case CommandType::kIncrBy:
      r.integer = store.incrby(cmd.key, cmd.arg0);
      r.ok = true;
      break;
    case CommandType::kCounter:
      r.integer = store.counter(cmd.key);
      r.ok = true;
      break;
  }
  return r;
}

Reply Client::execute(const Command& cmd) {
  return execute(cmd, retry_.deadline_s);
}

Reply Client::execute(const Command& cmd, double budget_s) {
  std::vector<Reply> out;
  round_trip(std::span(&cmd, 1), std::min(budget_s, retry_.deadline_s), out);
  return std::move(out.front());
}

void Client::round_trip(std::span<const Command> cmds, double deadline_s,
                        std::vector<Reply>& out) {
  const auto fail = [&](Status status) {
    for (std::size_t i = 0; i < cmds.size(); ++i) {
      out.push_back(Reply{.status = status});
    }
    fabric_.note_failure();
  };
  if (deadline_s <= 0.0) {
    // Caller's budget already spent: fail without touching the wire so
    // the exhausted deadline is not overdrawn.
    fail(Status::kUnavailable);
    return;
  }
  bool batch_idempotent = true;
  std::size_t req = 0;
  for (const Command& cmd : cmds) {
    batch_idempotent = batch_idempotent && idempotent(cmd.type);
    req += resp::command_wire_size(cmd);
  }
  // A fail-stopped store never answers and applies nothing (no zombie
  // acks from a crashed replica). Without an enabled injector no draws
  // are taken, so fault-free arithmetic is exactly the plain cost model.
  const bool down = store_.is_down();
  const bool draws = !down && fault_ != nullptr && fault_->enabled();
  double elapsed = 0.0;
  for (std::size_t attempt = 1;; ++attempt) {
    fabric_.note_attempt();
    fault::RoundTripFault net;
    double stall = 0.0;
    Status outcome = down ? Status::kTimeout : Status::kOk;
    bool applied_unseen = false;  // applied, but the reply never arrives
    std::size_t error_reply = 0;
    if (draws) {
      net = fault_->on_round_trip(self_, target_);
      if (net.partitioned || net.dropped) {
        outcome = Status::kTimeout;
        applied_unseen = net.dropped && !net.request_lost;
      } else {
        const fault::StoreFault sf = fault_->on_store_op(target_);
        if (sf == fault::StoreFault::kError || sf == fault::StoreFault::kDown) {
          outcome = Status::kError;
          error_reply = sf == fault::StoreFault::kDown
                            ? kStoreDownReply.size()
                            : kInjectedErrorReply.size();
        } else if (sf == fault::StoreFault::kStall) {
          stall = fault_->stall_seconds(target_);
          // A reply arriving after the client gave up is
          // indistinguishable from a lost one.
          if (stall >= retry_.attempt_timeout_s) {
            outcome = Status::kTimeout;
            applied_unseen = true;
          }
        }
      }
    }
    if (applied_unseen) {
      for (const Command& cmd : cmds) {
        (void)apply_command(store_, cmd);  // hetsim-analyze: allow(status-flow)
      }
    }
    if (outcome == Status::kOk) {
      std::size_t bytes = 0;
      for (const Command& cmd : cmds) {
        Reply reply = apply_command(store_, cmd);
        bytes += resp::command_wire_size(cmd) +
                 resp::reply_wire_size(cmd.type, reply);
        out.push_back(std::move(reply));
      }
      sim_time_ += fabric_.round_trip_cost(self_, target_, bytes) +
                   net.extra_latency_s + stall;
      fabric_.record(self_, target_, cmds.size(), 1, bytes);
      return;
    }
    if (outcome == Status::kTimeout) {
      // The client waits out the full attempt timeout for a reply that
      // never comes; only the request's bytes ever hit the wire.
      sim_time_ += retry_.attempt_timeout_s;
      elapsed += retry_.attempt_timeout_s;
      fabric_.record(self_, target_, cmds.size(), 1, req);
    } else {
      const double cost =
          fabric_.round_trip_cost(self_, target_, req + error_reply) +
          net.extra_latency_s;
      sim_time_ += cost;
      elapsed += cost;
      fabric_.record(self_, target_, cmds.size(), 1, req + error_reply);
    }
    // A timeout is ambiguous (the batch may have been applied), so a
    // batch holding a non-idempotent command must not be retried.
    if (outcome == Status::kTimeout && !batch_idempotent) {
      fabric_.note_timeout();
      fail(Status::kTimeout);
      return;
    }
    if (attempt >= retry_.max_attempts || elapsed >= deadline_s) {
      if (outcome == Status::kTimeout) fabric_.note_timeout();
      fail(Status::kUnavailable);
      return;
    }
    fabric_.note_retry();
    const double wait = backoff_s(attempt);
    sim_time_ += wait;
    elapsed += wait;
  }
}

void Client::set(std::string_view key, std::string_view value) {
  expect_ok(execute({.type = CommandType::kSet,
                     .key = std::string(key),
                     .value = std::string(value)}));
}

std::optional<std::string> Client::get(std::string_view key) {
  Reply r =
      expect_ok(execute({.type = CommandType::kGet, .key = std::string(key)}));
  if (!r.ok) return std::nullopt;
  return std::move(r.blob);
}

bool Client::del(std::string_view key) {
  return expect_ok(
             execute({.type = CommandType::kDel, .key = std::string(key)}))
      .ok;
}

std::size_t Client::rpush(std::string_view key, std::string_view element) {
  Reply r = expect_ok(execute({.type = CommandType::kRPush,
                               .key = std::string(key),
                               .value = std::string(element)}));
  return static_cast<std::size_t>(r.integer);
}

std::vector<std::string> Client::lrange(std::string_view key, std::int64_t start,
                                        std::int64_t stop) {
  Reply r = expect_ok(execute({.type = CommandType::kLRange,
                               .key = std::string(key),
                               .arg0 = start,
                               .arg1 = stop}));
  return std::move(r.list);
}

std::size_t Client::llen(std::string_view key) {
  Reply r = expect_ok(
      execute({.type = CommandType::kLLen, .key = std::string(key)}));
  return static_cast<std::size_t>(r.integer);
}

std::int64_t Client::incrby(std::string_view key, std::int64_t delta) {
  return expect_ok(execute({.type = CommandType::kIncrBy,
                            .key = std::string(key),
                            .arg0 = delta}))
      .integer;
}

std::int64_t Client::counter(std::string_view key) {
  return expect_ok(
             execute({.type = CommandType::kCounter, .key = std::string(key)}))
      .integer;
}

void Client::enqueue(Command cmd) {
  queue_.push_back(std::move(cmd));
  if (queue_.size() >= pipeline_width_) flush_queue(retry_.deadline_s);
}

void Client::flush_queue(double deadline_s) {
  if (queue_.empty()) return;
  round_trip(queue_, deadline_s, pending_replies_);
  queue_.clear();
}

std::vector<Reply> Client::drain() { return drain(retry_.deadline_s); }

std::vector<Reply> Client::drain(double budget_s) {
  flush_queue(std::min(budget_s, retry_.deadline_s));
  std::vector<Reply> out = std::move(pending_replies_);
  pending_replies_.clear();
  return out;
}

}  // namespace hetsim::kvstore
