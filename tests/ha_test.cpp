// Tests for hetsim::ha — the sharded, replicated, self-healing kvstore
// layer: consistent-hash shard maps (determinism + bounded churn),
// IBF set reconciliation (round trips + undecodable overload), the
// liveness-aware router's seeded failover elections, the replicated
// client's write fan-out / read fallback for every transport status,
// crash -> checkpoint -> rejoin recovery on a NodeGroup, and the job
// runtime's replicated degraded mode driven by the example fault plan.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <fstream>
#include <memory>
#include <numeric>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "cluster/cluster.h"
#include "common/error.h"
#include "core/workload.h"
#include "data/generators.h"
#include "energy/estimator.h"
#include "fault/fault.h"
#include "ha/client.h"
#include "ha/group.h"
#include "ha/ibf.h"
#include "ha/recovery.h"
#include "ha/repair.h"
#include "ha/router.h"
#include "ha/shard_map.h"
#include "kvstore/client.h"
#include "kvstore/store.h"
#include "runtime/runtime.h"

namespace hetsim {
namespace {

using ha::HostId;
using ha::Ibf;
using ha::NodeGroup;
using ha::NodeGroupConfig;
using ha::ShardMap;
using ha::ShardMapConfig;
using ha::ShardRouter;

std::vector<HostId> iota_nodes(std::size_t n) {
  std::vector<HostId> nodes(n);
  std::iota(nodes.begin(), nodes.end(), HostId{0});
  return nodes;
}

std::vector<std::string> sample_keys(std::size_t n) {
  std::vector<std::string> keys;
  keys.reserve(n);
  for (std::size_t i = 0; i < n; ++i) keys.push_back("key:" + std::to_string(i));
  return keys;
}

// ---- ShardMap --------------------------------------------------------------

TEST(ShardMap, SameInputsRouteIdentically) {
  const ShardMapConfig cfg{.virtual_nodes = 64, .replication = 3, .seed = 11};
  const ShardMap a(iota_nodes(5), cfg);
  const ShardMap b(iota_nodes(5), cfg);
  EXPECT_EQ(a.fingerprint(), b.fingerprint());
  for (const std::string& key : sample_keys(500)) {
    EXPECT_EQ(a.replicas(key), b.replicas(key)) << key;
    EXPECT_EQ(a.preference(key), b.preference(key)) << key;
  }
}

TEST(ShardMap, ReplicasAreDistinctAndLedByThePrimary) {
  const ShardMap map(iota_nodes(5),
                     {.virtual_nodes = 64, .replication = 3, .seed = 1});
  for (const std::string& key : sample_keys(200)) {
    const std::vector<HostId> replicas = map.replicas(key);
    ASSERT_EQ(replicas.size(), 3u);
    EXPECT_EQ(replicas[0], map.primary(key));
    std::set<HostId> distinct(replicas.begin(), replicas.end());
    EXPECT_EQ(distinct.size(), replicas.size()) << key;
    const std::vector<HostId> pref = map.preference(key);
    ASSERT_EQ(pref.size(), 5u);
    EXPECT_TRUE(std::equal(replicas.begin(), replicas.end(), pref.begin()));
  }
}

TEST(ShardMap, ReplicationClampsToTheNodeCount) {
  const ShardMap map(iota_nodes(2),
                     {.virtual_nodes = 32, .replication = 4, .seed = 3});
  EXPECT_EQ(map.replicas("k").size(), 2u);
}

TEST(ShardMap, AddNodeMovesOnlyABoundedKeyFraction) {
  const ShardMapConfig cfg{.virtual_nodes = 64, .replication = 2, .seed = 5};
  ShardMap map(iota_nodes(6), cfg);
  const std::vector<std::string> keys = sample_keys(2000);
  std::vector<HostId> before;
  before.reserve(keys.size());
  for (const std::string& key : keys) before.push_back(map.primary(key));

  map.add_node(6);
  std::size_t moved = 0;
  for (std::size_t i = 0; i < keys.size(); ++i) {
    const HostId now = map.primary(keys[i]);
    if (now != before[i]) {
      ++moved;
      // Consistent hashing only ever moves keys TO the new node.
      EXPECT_EQ(now, 6u) << keys[i];
    }
  }
  // Expected share is 1/7 ~ 14%; allow generous variance, but well under
  // the ~6/7 a naive mod-N rehash would move.
  EXPECT_GT(moved, 0u);
  EXPECT_LT(moved, keys.size() / 3);
}

TEST(ShardMap, RemoveNodeOnlyRehomesItsOwnKeys) {
  const ShardMapConfig cfg{.virtual_nodes = 64, .replication = 2, .seed = 5};
  ShardMap map(iota_nodes(6), cfg);
  const std::vector<std::string> keys = sample_keys(2000);
  std::vector<HostId> before;
  before.reserve(keys.size());
  for (const std::string& key : keys) before.push_back(map.primary(key));

  map.remove_node(2);
  for (std::size_t i = 0; i < keys.size(); ++i) {
    if (before[i] != 2) {
      // Survivors keep their ring points, so untouched arcs stay put.
      EXPECT_EQ(map.primary(keys[i]), before[i]) << keys[i];
    } else {
      EXPECT_NE(map.primary(keys[i]), 2u) << keys[i];
    }
  }
}

TEST(ShardMap, AddThenRemoveRestoresTheOriginalPlacement) {
  const ShardMapConfig cfg{.virtual_nodes = 32, .replication = 2, .seed = 9};
  ShardMap map(iota_nodes(4), cfg);
  const std::uint64_t original = map.fingerprint();
  map.add_node(9);
  EXPECT_NE(map.fingerprint(), original);
  map.remove_node(9);
  EXPECT_EQ(map.fingerprint(), original);
}

TEST(ShardMap, RejectsBadMembershipAndConfig) {
  EXPECT_THROW(ShardMap({}, {}), common::ConfigError);
  EXPECT_THROW(ShardMap({1, 1}, {}), common::ConfigError);
  EXPECT_THROW(ShardMap(iota_nodes(2), {.virtual_nodes = 0}),
               common::ConfigError);
  EXPECT_THROW(ShardMap(iota_nodes(2), {.replication = 0}),
               common::ConfigError);
  ShardMap map(iota_nodes(2), {});
  EXPECT_THROW(map.add_node(1), common::ConfigError);
  EXPECT_THROW(map.remove_node(7), common::ConfigError);
  map.remove_node(1);
  EXPECT_THROW(map.remove_node(0), common::ConfigError);
}

TEST(ShardMap, ReplicaSetsCoverEveryNode) {
  const ShardMap map(iota_nodes(4),
                     {.virtual_nodes = 64, .replication = 2, .seed = 2});
  const std::vector<std::vector<HostId>> sets = map.replica_sets();
  ASSERT_EQ(sets.size(), 4u);
  for (std::size_t i = 0; i < sets.size(); ++i) {
    EXPECT_FALSE(sets[i].empty()) << "node " << i;
    for (const HostId backer : sets[i]) EXPECT_NE(backer, i);
  }
}

using ShardMapDeathTest = ::testing::Test;

TEST(ShardMapDeathTest, ConflictingMapsDieLoudlyNotSilently) {
  const ShardMap a(iota_nodes(4), {.seed = 1});
  const ShardMap b(iota_nodes(4), {.seed = 2});
  EXPECT_DEATH(a.check_compatible(b), "conflicting shard maps");
  const ShardMap c(iota_nodes(5), {.seed = 1});
  EXPECT_DEATH(a.check_compatible(c), "conflicting shard maps");
}

// ---- Ibf -------------------------------------------------------------------

std::uint64_t item_of(std::uint64_t i) { return 0x9e3779b9u * (i + 1); }

TEST(Ibf, RejectsDegenerateGeometry) {
  EXPECT_THROW(Ibf(Ibf::kHashes - 1, 0), common::ConfigError);
}

TEST(Ibf, SubtractDecodeRecoversTheSymmetricDifference) {
  Ibf a(64, 7);
  Ibf b(64, 7);
  // 500 shared items dwarf the sketch size; only the difference counts.
  for (std::uint64_t i = 0; i < 500; ++i) {
    a.add(item_of(i));
    b.add(item_of(i));
  }
  const std::vector<std::uint64_t> only_a = {item_of(1000), item_of(1001)};
  const std::vector<std::uint64_t> only_b = {item_of(2000), item_of(2001),
                                             item_of(2002)};
  for (const std::uint64_t item : only_a) a.add(item);
  for (const std::uint64_t item : only_b) b.add(item);

  a.subtract(b);
  const Ibf::Decode diff = a.decode();
  ASSERT_TRUE(diff.ok);
  std::vector<std::uint64_t> expect_extra = only_a;
  std::vector<std::uint64_t> expect_missing = only_b;
  std::sort(expect_extra.begin(), expect_extra.end());
  std::sort(expect_missing.begin(), expect_missing.end());
  EXPECT_EQ(diff.extra, expect_extra);
  EXPECT_EQ(diff.missing, expect_missing);
}

TEST(Ibf, IdenticalSetsDecodeToEmpty) {
  Ibf a(16, 3);
  Ibf b(16, 3);
  for (std::uint64_t i = 0; i < 100; ++i) {
    a.add(item_of(i));
    b.add(item_of(i));
  }
  a.subtract(b);
  const Ibf::Decode diff = a.decode();
  EXPECT_TRUE(diff.ok);
  EXPECT_TRUE(diff.extra.empty());
  EXPECT_TRUE(diff.missing.empty());
}

TEST(Ibf, AddRemoveCancelsExactly) {
  Ibf a(32, 1);
  a.add(item_of(1));
  a.add(item_of(2));
  a.remove(item_of(1));
  Ibf b(32, 1);
  b.add(item_of(2));
  a.subtract(b);
  const Ibf::Decode diff = a.decode();
  EXPECT_TRUE(diff.ok);
  EXPECT_TRUE(diff.extra.empty());
  EXPECT_TRUE(diff.missing.empty());
}

TEST(Ibf, OverloadedSketchReportsUndecodable) {
  // A 16-cell sketch cannot peel a 200-item difference.
  Ibf a(16, 5);
  Ibf b(16, 5);
  for (std::uint64_t i = 0; i < 200; ++i) a.add(item_of(i));
  a.subtract(b);
  EXPECT_FALSE(a.decode().ok);
}

TEST(Ibf, MismatchedSketchesRefuseToSubtract) {
  Ibf a(32, 1);
  Ibf b(64, 1);
  EXPECT_THROW(a.subtract(b), common::ConfigError);
  Ibf c(32, 2);
  EXPECT_THROW(a.subtract(c), common::ConfigError);
}

TEST(Ibf, WireBytesTrackTheCellCount) {
  const Ibf a(64, 0);
  EXPECT_EQ(a.wire_bytes(), 64 * Ibf::kCellBytes + 16);
}

// ---- ShardRouter: liveness + elections -------------------------------------

TEST(ShardRouter, RouteSkipsDeadPrimariesTransparently) {
  ShardRouter router(ShardMap(iota_nodes(4), {.replication = 2, .seed = 4}),
                     /*election_seed=*/17);
  const std::string key = "payload:42";
  const std::vector<HostId> pref = router.map().preference(key);
  const std::vector<HostId> healthy = router.route(key);
  ASSERT_EQ(healthy.size(), 2u);
  EXPECT_EQ(healthy[0], pref[0]);

  (void)router.mark_down(pref[0], 1.0);
  const std::vector<HostId> degraded = router.route(key);
  ASSERT_EQ(degraded.size(), 2u);
  EXPECT_EQ(degraded[0], pref[1]);  // next live node in ring order
  EXPECT_EQ(degraded[1], pref[2]);

  router.mark_up(pref[0]);
  EXPECT_EQ(router.route(key), healthy);
}

TEST(ShardRouter, LivePreferenceShrinksWithTheClusterAndNeverLies) {
  ShardRouter router(ShardMap(iota_nodes(4), {.replication = 2, .seed = 4}),
                     /*election_seed=*/17);
  (void)router.mark_down(1, 0.5);
  (void)router.mark_down(3, 0.6);
  EXPECT_EQ(router.live_count(), 2u);
  for (const std::string& key : sample_keys(50)) {
    const std::vector<HostId> live = router.live_preference(key);
    ASSERT_EQ(live.size(), 2u);
    for (const HostId node : live) {
      EXPECT_FALSE(router.is_down(node));
    }
  }
}

TEST(ShardRouter, MarkDownIsIdempotentAndTermsAreDense) {
  ShardRouter router(ShardMap(iota_nodes(4), {.replication = 2, .seed = 4}),
                     /*election_seed=*/17);
  const ha::ElectionRecord first = router.mark_down(2, 1.0);
  EXPECT_EQ(first.failed, 2u);
  EXPECT_NE(first.promoted, 2u);
  EXPECT_EQ(first.term, 0u);
  const ha::ElectionRecord again = router.mark_down(2, 9.0);
  EXPECT_EQ(again.term, first.term);
  EXPECT_EQ(again.promoted, first.promoted);
  EXPECT_DOUBLE_EQ(again.at_s, first.at_s);
  ASSERT_EQ(router.elections().size(), 1u);

  const ha::ElectionRecord second = router.mark_down(0, 2.0);
  EXPECT_EQ(second.term, 1u);
  EXPECT_EQ(router.elections().size(), 2u);
}

TEST(ShardRouter, LastNodeStandingPromotesItself) {
  ShardRouter router(ShardMap(iota_nodes(2), {.replication = 2, .seed = 4}),
                     /*election_seed=*/17);
  (void)router.mark_down(0, 1.0);
  const ha::ElectionRecord record = router.mark_down(1, 2.0);
  EXPECT_EQ(record.failed, 1u);
  EXPECT_EQ(record.promoted, 1u);  // nobody left to promote
  EXPECT_TRUE(router.route("k").empty());
}

TEST(ShardRouter, SameSeedElectionsReplayIdentically) {
  const auto replay = [](std::uint64_t election_seed) {
    ShardRouter router(
        ShardMap(iota_nodes(6), {.replication = 3, .seed = 21}),
        election_seed);
    std::vector<ha::ElectionRecord> records;
    records.push_back(router.mark_down(4, 0.25));
    records.push_back(router.mark_down(1, 0.50));
    router.mark_up(4);
    records.push_back(router.mark_down(2, 0.75));
    return records;
  };
  const std::vector<ha::ElectionRecord> a = replay(99);
  const std::vector<ha::ElectionRecord> b = replay(99);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].failed, b[i].failed) << i;
    EXPECT_EQ(a[i].promoted, b[i].promoted) << i;
    EXPECT_EQ(a[i].ballot, b[i].ballot) << i;
    EXPECT_EQ(a[i].term, b[i].term) << i;
  }
  // The ballots are a function of the seed: a different stream draws
  // different numbers (the winner may coincide, the draws cannot).
  const std::vector<ha::ElectionRecord> c = replay(100);
  bool any_ballot_differs = false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    any_ballot_differs |= a[i].ballot != c[i].ballot;
  }
  EXPECT_TRUE(any_ballot_differs);
}

// ---- ha::Client fallback policy --------------------------------------------

TEST(HaClient, FallbackPolicyCoversEveryTransportStatus) {
  EXPECT_FALSE(ha::should_fall_back(kvstore::Status::kOk));
  EXPECT_TRUE(ha::should_fall_back(kvstore::Status::kError));
  EXPECT_TRUE(ha::should_fall_back(kvstore::Status::kTimeout));
  EXPECT_TRUE(ha::should_fall_back(kvstore::Status::kUnavailable));
}

// ---- NodeGroup: the stack end to end ---------------------------------------

// ---- circuit breaker + load shedding ---------------------------------------

TEST(Breaker, OpensAfterConsecutiveFailuresAndShedsFromWalks) {
  ShardRouter router(ShardMap(iota_nodes(4), {.replication = 2, .seed = 4}),
                     /*election_seed=*/17,
                     {.failure_threshold = 3, .cooldown_routes = 1000});
  const std::string key = "payload:42";
  const HostId primary = router.route(key)[0];
  router.note_op_outcome(primary, false);
  router.note_op_outcome(primary, false);
  EXPECT_FALSE(router.breaker_open(primary));  // threshold not reached
  router.note_op_outcome(primary, false);
  EXPECT_TRUE(router.breaker_open(primary));
  EXPECT_EQ(router.stats().breaker_opens, 1u);

  // Shed from the walk: the slot extends to a healthy successor.
  const std::vector<HostId> shed_route = router.live_preference(key);
  for (const HostId node : shed_route) EXPECT_NE(node, primary);
  EXPECT_GT(router.stats().shed, 0u);
  // ...but the last-resort walk still reaches it (sheds load, not data).
  const std::vector<HostId> all =
      router.live_preference(key, /*ignore_breaker=*/true);
  EXPECT_EQ(all[0], primary);

  // A success anywhere resets only that node's streak; an intervening
  // success on the broken node is impossible while shed, so mark_up is
  // the operator's reset.
  router.mark_up(primary);
  EXPECT_FALSE(router.breaker_open(primary));
}

TEST(Breaker, HalfOpenProbeClosesOnSuccessAndReArmsOnFailure) {
  ShardRouter router(ShardMap(iota_nodes(4), {.replication = 2, .seed = 4}),
                     /*election_seed=*/17,
                     {.failure_threshold = 1, .cooldown_routes = 2});
  const std::string key = "payload:7";
  const HostId primary = router.route(key)[0];
  router.note_op_outcome(primary, false);
  ASSERT_TRUE(router.breaker_open(primary));

  // Burn the cooldown with walk decisions, then the next walk admits
  // the node as a probe.
  (void)router.live_preference(key);
  (void)router.live_preference(key);
  const std::vector<HostId> probe_walk = router.live_preference(key);
  EXPECT_EQ(probe_walk[0], primary);
  EXPECT_GE(router.stats().breaker_probes, 1u);

  // Probe fails: re-armed, shed again.
  router.note_op_outcome(primary, false);
  EXPECT_TRUE(router.breaker_open(primary));
  EXPECT_NE(router.live_preference(key)[0], primary);

  // Next probe succeeds: breaker closes for good.
  (void)router.live_preference(key);
  (void)router.live_preference(key);
  (void)router.live_preference(key);
  router.note_op_outcome(primary, true);
  EXPECT_FALSE(router.breaker_open(primary));
  EXPECT_EQ(router.live_preference(key)[0], primary);
}

TEST(Breaker, AvailabilityFloorKeepsServingWhenEveryReplicaIsOpen) {
  ShardRouter router(ShardMap(iota_nodes(3), {.replication = 3, .seed = 4}),
                     /*election_seed=*/17,
                     {.failure_threshold = 1, .cooldown_routes = 1000});
  for (HostId node = 0; node < 3; ++node) {
    router.note_op_outcome(node, false);
    EXPECT_TRUE(router.breaker_open(node));
  }
  // All breakers open: shedding everything would turn an overload
  // control into an outage, so the walk falls back to the shed set.
  const std::vector<HostId> route = router.live_preference("k");
  EXPECT_FALSE(route.empty());
}

TEST(Breaker, FlappingReplicaIsShedAndWritesKeepLanding) {
  // End to end through the NodeGroup: an always-erroring replica opens
  // its breaker after a few puts; later puts stop burning retry budget
  // against it (writes keep succeeding on the healthy replicas).
  NodeGroupConfig config{.nodes = 4, .shard = {.replication = 2, .seed = 31}};
  NodeGroup group(config);
  fault::FaultPlan plan;
  plan.seed = 77;
  plan.stores[1].error_prob = 1.0;
  group.set_fault(plan);
  std::size_t ok = 0;
  for (int i = 0; i < 40; ++i) {
    const ha::WriteResult res =
        group.client(0).put("k" + std::to_string(i), "v");
    EXPECT_EQ(res.attempted + res.expired, res.routed);
    if (res.status == kvstore::Status::kOk) ++ok;
  }
  EXPECT_EQ(ok, 40u);
  EXPECT_TRUE(group.router().breaker_open(1));
  EXPECT_GT(group.router().stats().breaker_opens, 0u);
  EXPECT_GT(group.router().stats().shed, 0u);
}

// ---- fan-out deadline budget -----------------------------------------------

TEST(DeadlineBudget, OneLogicalOpSharesOneDeadlineAcrossReplicas) {
  // A dead primary must not let each subsequent replica re-up a full
  // per-replica deadline: the fan-out charges everything against one
  // budget, and replicas whose turn comes too late count as expired.
  NodeGroupConfig config{.nodes = 4, .shard = {.replication = 2, .seed = 31}};
  config.retry.max_attempts = 50;
  config.retry.deadline_s = 0.3;
  config.retry.attempt_timeout_s = 0.1;
  config.breaker.enabled = false;  // isolate the budget from shedding
  NodeGroup group(config);
  const std::string key = "object:3";
  const HostId primary = group.router().route(key)[0];
  group.store(primary).fail_stop();  // dead store the router can't see

  const double before = group.consumed_time();
  const ha::WriteResult res = group.client(0).put(key, "v");
  EXPECT_EQ(res.routed, 2u);
  EXPECT_EQ(res.attempted, 1u);  // the primary burned the whole budget
  EXPECT_EQ(res.expired, 1u);    // the replica's turn came too late
  EXPECT_NE(res.status, kvstore::Status::kOk);
  // ~3 attempts x 0.1 s, nowhere near 2 deadlines.
  EXPECT_LT(group.consumed_time() - before, 0.55);
}

TEST(DeadlineBudget, WriteResultConservationHoldsUnderCrashes) {
  NodeGroup group({.nodes = 4, .shard = {.replication = 2, .seed = 31}});
  (void)group.crash(2, 0.1);
  for (int i = 0; i < 32; ++i) {
    const ha::WriteResult res =
        group.client(0).put("c" + std::to_string(i), "v");
    EXPECT_EQ(res.attempted + res.expired, res.routed) << "put " << i;
    EXPECT_EQ(res.status, kvstore::Status::kOk);
  }
}

TEST(NodeGroup, PutFansOutToEveryReplicaAndFeedsTheirOpLogs) {
  NodeGroup group({.nodes = 4, .shard = {.replication = 2, .seed = 31}});
  const std::string key = "object:7";
  const ha::WriteResult res = group.client(0).put(key, "v0");
  EXPECT_EQ(res.status, kvstore::Status::kOk);
  EXPECT_EQ(res.attempted, 2u);
  EXPECT_EQ(res.acked, 2u);

  const std::vector<HostId> replicas = group.router().route(key);
  ASSERT_EQ(replicas.size(), 2u);
  for (HostId node = 0; node < 4; ++node) {
    const bool holds =
        std::find(replicas.begin(), replicas.end(), node) != replicas.end();
    EXPECT_EQ(group.store(node).exists(key), holds) << "node " << node;
    EXPECT_EQ(group.oplog(node).size(), holds ? 1u : 0u) << "node " << node;
  }
}

TEST(NodeGroup, ReadFallsBackWhenThePrimaryIsDown) {
  NodeGroup group({.nodes = 4, .shard = {.replication = 2, .seed = 31}});
  const std::string key = "object:9";
  ASSERT_EQ(group.client(0).put(key, "payload").acked, 2u);
  const std::vector<HostId> replicas = group.router().route(key);

  (void)group.crash(replicas[0], 0.5);
  const ha::ReadResult read = group.client(0).get(key);
  EXPECT_EQ(read.reply.status, kvstore::Status::kOk);
  EXPECT_TRUE(read.reply.ok);
  EXPECT_EQ(read.reply.blob, "payload");
  EXPECT_EQ(read.served_by, replicas[1]);
  // A crashed primary is demoted from the live preference entirely, so
  // the surviving replica answers FIRST — transparent demotion, not a
  // mid-walk fallback (those are counted when a live replica fails).
  EXPECT_FALSE(read.fallback);
}

TEST(NodeGroup, ErroringReplicaDivergesButTheWriteStillLands) {
  // Exhausted retries against the always-erroring store surface as
  // kUnavailable on that replica; the logical write succeeds on the
  // healthy one and the divergence is counted for repair.
  NodeGroup group({.nodes = 3, .shard = {.replication = 2, .seed = 8}});
  const std::string key = "object:3";
  const std::vector<HostId> replicas = group.router().route(key);
  fault::FaultPlan plan;
  plan.seed = 12;
  plan.stores[replicas[0]].error_prob = 1.0;
  group.set_fault(plan);

  const ha::WriteResult res = group.client(replicas[1]).put(key, "v");
  EXPECT_EQ(res.status, kvstore::Status::kOk);
  EXPECT_EQ(res.attempted, 2u);
  EXPECT_EQ(res.acked, 1u);
  EXPECT_GE(group.router().stats().write_failures, 1u);
  EXPECT_FALSE(group.store(replicas[0]).exists(key));
  EXPECT_TRUE(group.store(replicas[1]).exists(key));

  // Reads fall back past the erroring primary and still answer.
  const ha::ReadResult read = group.client(replicas[1]).get(key);
  EXPECT_TRUE(read.reply.ok);
  EXPECT_EQ(read.served_by, replicas[1]);
}

TEST(NodeGroup, PartitionedReplicaTimesOutWithoutFailingTheWrite) {
  NodeGroup group({.nodes = 3, .shard = {.replication = 2, .seed = 8}});
  const std::string key = "doc:1";
  const std::vector<HostId> replicas = group.router().route(key);
  const HostId self = replicas[1];
  fault::FaultPlan plan;
  plan.seed = 13;
  plan.partitions.push_back({.a = self, .b = replicas[0]});
  group.set_fault(plan);

  // Non-idempotent append through the cut: a single kTimeout, no retry
  // (the ambiguous loss could double-apply), observable on the raw
  // connection...
  const kvstore::Reply raw = group.connection(self, replicas[0])
                                 .execute({.type = kvstore::CommandType::kRPush,
                                           .key = "queue:raw",
                                           .value = "e0"});
  EXPECT_EQ(raw.status, kvstore::Status::kTimeout);

  // ...while an idempotent replicated put retries the cut replica until
  // kUnavailable and still lands on the reachable one.
  const ha::WriteResult res = group.client(self).put(key, "v");
  EXPECT_EQ(res.status, kvstore::Status::kOk);
  EXPECT_EQ(res.attempted, 2u);
  EXPECT_EQ(res.acked, 1u);
  EXPECT_TRUE(group.store(self).exists(key));
  EXPECT_FALSE(group.store(replicas[0]).exists(key));

  // Reads walk past the unreachable primary and answer from self.
  const ha::ReadResult read = group.client(self).get(key);
  EXPECT_EQ(read.reply.status, kvstore::Status::kOk);
  EXPECT_TRUE(read.reply.ok);
  EXPECT_EQ(read.reply.blob, "v");
  EXPECT_EQ(read.served_by, self);
  EXPECT_TRUE(read.fallback);
}

TEST(NodeGroup, AllReplicasDownMakesTheWriteUnavailable) {
  NodeGroup group({.nodes = 3, .shard = {.replication = 2, .seed = 8}});
  for (HostId node = 0; node < 3; ++node) (void)group.crash(node, 1.0);
  const ha::WriteResult res = group.client(0).put("k", "v");
  EXPECT_EQ(res.status, kvstore::Status::kUnavailable);
  EXPECT_EQ(res.attempted, 0u);
  EXPECT_EQ(res.acked, 0u);
}

TEST(NodeGroup, BatchedPutGetRoundTripsEveryKey) {
  NodeGroup group({.nodes = 4, .shard = {.replication = 2, .seed = 77}});
  std::vector<std::pair<std::string, std::string>> pairs;
  std::vector<std::string> keys;
  for (int i = 0; i < 64; ++i) {
    pairs.emplace_back("rec:" + std::to_string(i), "v" + std::to_string(i));
    keys.push_back(pairs.back().first);
  }
  const std::vector<ha::WriteResult> writes = group.client(1).put_many(pairs);
  ASSERT_EQ(writes.size(), pairs.size());
  for (const ha::WriteResult& w : writes) {
    EXPECT_EQ(w.status, kvstore::Status::kOk);
    EXPECT_EQ(w.acked, 2u);
  }
  const std::vector<ha::ReadResult> reads = group.client(2).get_many(keys);
  ASSERT_EQ(reads.size(), keys.size());
  for (std::size_t i = 0; i < reads.size(); ++i) {
    EXPECT_TRUE(reads[i].reply.ok) << keys[i];
    EXPECT_EQ(reads[i].reply.blob, pairs[i].second) << keys[i];
  }
}

// ---- recovery: snapshot + op-log replay ------------------------------------

TEST(Recovery, SnapshotPlusLogReplayRebuildsTheExactStore) {
  kvstore::Store store;
  ha::OpLog log;
  const auto apply_and_log = [&](kvstore::Command cmd) {
    (void)kvstore::apply_command(store, cmd);
    (void)log.append(std::move(cmd));
  };
  apply_and_log({.type = kvstore::CommandType::kSet, .key = "a", .value = "1"});
  apply_and_log(
      {.type = kvstore::CommandType::kRPush, .key = "l", .value = "x"});
  const ha::Snapshot snap = ha::take_snapshot(store, log.last_seq());
  // Post-snapshot writes live only in the log tail.
  apply_and_log(
      {.type = kvstore::CommandType::kRPush, .key = "l", .value = "y"});
  apply_and_log({.type = kvstore::CommandType::kIncrBy, .key = "c", .arg0 = 5});
  apply_and_log({.type = kvstore::CommandType::kDel, .key = "a"});

  kvstore::Store rebuilt;
  const ha::RecoveryReport report = ha::recover(rebuilt, snap, log);
  EXPECT_EQ(report.snapshot_seq, 2u);
  EXPECT_EQ(report.snapshot_keys, 2u);
  EXPECT_EQ(report.replayed_ops, 3u);
  EXPECT_EQ(rebuilt.keys(), store.keys());
  for (const std::string& key : store.keys()) {
    EXPECT_EQ(rebuilt.value_digest(key), store.value_digest(key)) << key;
  }
  EXPECT_EQ(rebuilt.lrange("l", 0, -1),
            (std::vector<std::string>{"x", "y"}));
  EXPECT_EQ(rebuilt.counter("c"), 5);
}

TEST(Recovery, ReplayFailuresAreCountedNotSwallowed) {
  // Regression for the status-flow finding in recover(): replay used to
  // (void)-discard every Reply, so a log entry that re-applied with no
  // effect vanished silently. A corrupted tail entry (here: a read of a
  // key the snapshot+log state cannot contain) must be surfaced.
  ha::OpLog log;
  (void)log.append(
      {.type = kvstore::CommandType::kSet, .key = "a", .value = "1"});
  (void)log.append({.type = kvstore::CommandType::kGet, .key = "ghost"});
  kvstore::Store rebuilt;
  const ha::RecoveryReport report = ha::recover(rebuilt, ha::Snapshot{}, log);
  EXPECT_EQ(report.replayed_ops, 1u);
  EXPECT_EQ(report.failed_ops, 1u);
  EXPECT_TRUE(report.diverged());
}

TEST(Recovery, DelOfAbsentKeyIsALegitimateNoOpNotDivergence) {
  ha::OpLog log;
  (void)log.append({.type = kvstore::CommandType::kDel, .key = "never"});
  kvstore::Store rebuilt;
  const ha::RecoveryReport report = ha::recover(rebuilt, ha::Snapshot{}, log);
  EXPECT_EQ(report.replayed_ops, 1u);
  EXPECT_EQ(report.failed_ops, 0u);
  EXPECT_FALSE(report.diverged());
}

TEST(Recovery, TrimDropsOnlyTheCoveredPrefix) {
  ha::OpLog log;
  for (int i = 0; i < 5; ++i) {
    (void)log.append({.type = kvstore::CommandType::kSet,
                      .key = "k" + std::to_string(i)});
  }
  log.trim(3);
  EXPECT_EQ(log.size(), 2u);
  EXPECT_EQ(log.last_seq(), 5u);  // sequence numbers never rewind
  const std::vector<ha::LogEntry> tail = log.tail(0);
  ASSERT_EQ(tail.size(), 2u);
  EXPECT_EQ(tail[0].seq, 4u);
  EXPECT_EQ(tail[1].seq, 5u);
}

// ---- repair: IBF anti-entropy ----------------------------------------------

TEST(Repair, PlanFindsMissingDivergentAndOrphanedKeys) {
  kvstore::Store authority;
  kvstore::Store target;
  for (int i = 0; i < 300; ++i) {
    const std::string key = "k" + std::to_string(i);
    authority.set(key, "v" + std::to_string(i));
    if (i != 7) target.set(key, "v" + std::to_string(i));  // k7 missing
  }
  target.set("k3", "diverged");        // same key, different value
  target.set("orphan", "stale");       // authority never had it

  const ha::RepairPlan plan = ha::plan_repair(authority, target);
  ASSERT_TRUE(plan.decoded);
  // copy_keys follow the (deterministic) peel order, not key order.
  std::vector<std::string> copies = plan.copy_keys;
  std::sort(copies.begin(), copies.end());
  EXPECT_EQ(copies, (std::vector<std::string>{"k3", "k7"}));
  EXPECT_EQ(plan.delete_keys, (std::vector<std::string>{"orphan"}));
  EXPECT_GT(plan.ibf_wire_bytes, 0u);

  const ha::RepairReport report = ha::apply_repair(authority, target, plan);
  EXPECT_EQ(report.copied, 2u);
  EXPECT_EQ(report.deleted, 1u);
  EXPECT_GT(report.payload_bytes, 0u);
  EXPECT_EQ(target.keys(), authority.keys());
  for (const std::string& key : authority.keys()) {
    EXPECT_EQ(target.value_digest(key), authority.value_digest(key)) << key;
  }

  // Converged stores plan an empty repair in one round.
  const ha::RepairPlan again = ha::plan_repair(authority, target);
  EXPECT_TRUE(again.decoded);
  EXPECT_EQ(again.rounds, 1u);
  EXPECT_TRUE(again.copy_keys.empty());
  EXPECT_TRUE(again.delete_keys.empty());
}

TEST(Repair, UndecodableOverloadDoublesCellsUntilItDecodes) {
  kvstore::Store authority;
  kvstore::Store target;  // empty: the difference is the whole keyspace
  for (int i = 0; i < 400; ++i) {
    authority.set("k" + std::to_string(i), std::string(20, 'x'));
  }
  ha::RepairConfig config;
  config.initial_cells = 8;  // far below the 400-key difference
  const ha::RepairPlan plan = ha::plan_repair(authority, target, config);
  ASSERT_TRUE(plan.decoded);
  EXPECT_GT(plan.rounds, 1u);
  EXPECT_GT(plan.cells, config.initial_cells);
  EXPECT_EQ(plan.copy_keys.size(), 400u);
  // Every undecodable round still shipped its sketches.
  EXPECT_GT(plan.ibf_wire_bytes,
            plan.cells * Ibf::kCellBytes);
}

TEST(Repair, GivesUpLoudlyWhenTheDifferenceIsTheKeyspace) {
  kvstore::Store authority;
  kvstore::Store target;
  for (int i = 0; i < 200; ++i) authority.set("k" + std::to_string(i), "v");
  ha::RepairConfig config;
  config.initial_cells = 8;
  config.max_cells = 16;  // can never hold a 200-key difference
  EXPECT_THROW((void)ha::plan_repair(authority, target, config),
               common::ConfigError);
}

TEST(Repair, KeyFilterScopesTheReconciliation) {
  kvstore::Store authority;
  kvstore::Store target;
  authority.set("shared:1", "v");
  authority.set("private:1", "v");  // outside the filter: not copied
  const ha::KeyFilter filter = [](const std::string& key) {
    return key.starts_with("shared:");
  };
  const ha::RepairPlan plan =
      ha::plan_repair(authority, target, {}, filter);
  ASSERT_TRUE(plan.decoded);
  EXPECT_EQ(plan.copy_keys, (std::vector<std::string>{"shared:1"}));
  EXPECT_TRUE(plan.delete_keys.empty());
}

TEST(Repair, WireCostStaysProportionalToTheDeltaNotTheKeyspace) {
  kvstore::Store authority;
  kvstore::Store target;
  std::size_t keyspace_bytes = 0;
  for (int i = 0; i < 2000; ++i) {
    const std::string key = "k" + std::to_string(i);
    const std::string value(40, 'x');
    authority.set(key, value);
    if (i >= 10) target.set(key, value);  // 10 keys differ
    keyspace_bytes += key.size() + value.size();
  }
  const ha::RepairReport report = ha::repair(authority, target);
  EXPECT_EQ(report.copied, 10u);
  // Sketches + delta payload come to a small fraction of shipping the
  // 2000-key keyspace.
  const ha::RepairPlan plan = ha::plan_repair(authority, target);
  EXPECT_TRUE(plan.copy_keys.empty());
  EXPECT_LT(report.payload_bytes, keyspace_bytes / 10);
}

// ---- NodeGroup: crash -> checkpoint -> rejoin ------------------------------

TEST(NodeGroup, CrashCheckpointRejoinRestoresEveryReplicaByte) {
  NodeGroup group({.nodes = 4, .shard = {.replication = 2, .seed = 4}});
  ha::Client& client = group.client(0);
  for (int i = 0; i < 40; ++i) {
    ASSERT_GE(client.put("k" + std::to_string(i), "v" + std::to_string(i))
                  .acked,
              1u);
  }
  group.checkpoint(1);
  for (int i = 40; i < 60; ++i) {  // post-checkpoint: only in the op log
    ASSERT_GE(client.put("k" + std::to_string(i), "v" + std::to_string(i))
                  .acked,
              1u);
  }

  const ha::ElectionRecord election = group.crash(1, 1.0);
  EXPECT_EQ(election.failed, 1u);
  EXPECT_EQ(group.store(1).stats().keys, 0u);  // wiped
  for (int i = 60; i < 80; ++i) {  // written while node 1 is down
    ASSERT_GE(client.put("k" + std::to_string(i), "v" + std::to_string(i))
                  .acked,
              1u);
  }

  const NodeGroup::RejoinReport report = group.rejoin(1);
  EXPECT_GT(report.recovery.snapshot_keys, 0u);
  EXPECT_FALSE(group.router().is_down(1));

  // Every key routed to node 1 must be back, byte-identical to a live
  // peer's copy; keys NOT routed to it must not have been smuggled in.
  std::size_t replicated_here = 0;
  for (int i = 0; i < 80; ++i) {
    const std::string key = "k" + std::to_string(i);
    const std::vector<HostId> replicas = group.router().route(key);
    const bool here =
        std::find(replicas.begin(), replicas.end(), HostId{1}) !=
        replicas.end();
    if (!here) {
      EXPECT_FALSE(group.store(1).exists(key)) << key;
      continue;
    }
    ++replicated_here;
    const HostId peer = replicas[0] == 1 ? replicas[1] : replicas[0];
    EXPECT_EQ(group.store(1).value_digest(key),
              group.store(peer).value_digest(key))
        << key;
  }
  EXPECT_GT(replicated_here, 0u);

  // And the rejoined node serves reads again as a first-class replica.
  const ha::ReadResult read = group.client(2).get("k70");
  EXPECT_TRUE(read.reply.ok);
  EXPECT_EQ(read.reply.blob, "v70");
}

TEST(NodeGroup, RejoinRepairCopiesOnlyWhatWasMissedWhileDown) {
  NodeGroup group({.nodes = 3, .shard = {.replication = 2, .seed = 6}});
  ha::Client& client = group.client(0);
  for (int i = 0; i < 30; ++i) {
    (void)client.put("k" + std::to_string(i), "v");
  }
  (void)group.crash(2, 1.0);
  std::size_t missed_here = 0;
  for (int i = 30; i < 50; ++i) {
    const std::string key = "k" + std::to_string(i);
    (void)client.put(key, "v");
    const std::vector<HostId> pref = group.router().map().preference(key);
    // Keys whose healthy route includes node 2 were missed by it.
    if (pref[0] == 2 || pref[1] == 2) ++missed_here;
  }
  const NodeGroup::RejoinReport report = group.rejoin(2);
  // Replay restored the pre-crash writes; repair closed the missed ones
  // (and nothing beyond them — the log made the rest exact).
  EXPECT_EQ(report.repair.copied, missed_here);
}

TEST(NodeGroup, SameSeedRecoveryTracesAreIdentical) {
  const auto run = [] {
    NodeGroup group({.nodes = 4, .shard = {.replication = 2, .seed = 4}});
    ha::Client& client = group.client(0);
    for (int i = 0; i < 30; ++i) {
      (void)client.put("k" + std::to_string(i), "v" + std::to_string(i));
    }
    group.checkpoint(1);
    (void)group.crash(1, 1.0);
    for (int i = 30; i < 45; ++i) {
      (void)client.put("k" + std::to_string(i), "v" + std::to_string(i));
    }
    const NodeGroup::RejoinReport report = group.rejoin(1);
    std::ostringstream trace;
    for (const ha::ElectionRecord& e : group.router().elections()) {
      trace << e.term << ':' << e.failed << "->" << e.promoted << '@'
            << e.ballot << ';';
    }
    trace << report.recovery.snapshot_seq << ','
          << report.recovery.snapshot_keys << ','
          << report.recovery.replayed_ops << ',' << report.repair.copied
          << ',' << report.repair.deleted << ','
          << report.repair.payload_bytes << '|';
    for (const std::string& key : group.store(1).keys()) {
      trace << key << '=' << group.store(1).value_digest(key) << ';';
    }
    return trace.str();
  };
  const std::string a = run();
  const std::string b = run();
  EXPECT_FALSE(a.empty());
  EXPECT_EQ(a, b);
}

// ---- runtime integration: replicated jobs ----------------------------------

class LinearWorkload final : public core::Workload {
 public:
  [[nodiscard]] std::string name() const override { return "linear"; }
  [[nodiscard]] partition::Layout preferred_layout() const override {
    return partition::Layout::kRepresentative;
  }
  void reset(std::size_t, std::uint32_t) override {}
  void run(cluster::NodeContext& ctx, const data::Dataset&,
           std::span<const std::uint32_t> indices) override {
    ctx.meter().add(500.0 * static_cast<double>(indices.size()));
  }
};

data::Dataset small_corpus(std::size_t docs, std::uint64_t seed = 7) {
  data::TextCorpusConfig cfg;
  cfg.num_docs = docs;
  cfg.seed = seed;
  return data::generate_text_corpus(cfg, "corpus");
}

runtime::JobSpec fast_spec() {
  runtime::JobSpec spec;
  spec.sampling.min_records = 20;
  spec.sampling.steps = 3;
  spec.kmodes.num_strata = 8;
  spec.kmodes.max_iterations = 4;
  spec.sketch.num_hashes = 16;
  return spec;
}

runtime::JobSummary run_job(const data::Dataset& dataset,
                            const fault::FaultPlan* plan,
                            runtime::JobSpec spec, std::size_t nodes,
                            std::string* trace_and_summary = nullptr) {
  cluster::Cluster cluster(
      cluster::standard_cluster(static_cast<std::uint32_t>(nodes)));
  const auto energy = energy::GreenEnergyEstimator::standard(72);
  std::unique_ptr<fault::FaultInjector> inj;
  if (plan != nullptr) {
    inj = std::make_unique<fault::FaultInjector>(*plan);
    cluster.set_fault(inj.get());
  }
  LinearWorkload workload;
  runtime::JobRuntime rt(cluster, energy, std::move(spec));
  const runtime::JobSummary summary = rt.run(dataset, workload);
  if (trace_and_summary != nullptr) {
    *trace_and_summary =
        rt.trace().chrome_trace_json() + "\n" + summary_json(summary);
  }
  return summary;
}

TEST(ReplicatedJob, RejectsReplicationBeyondTheClusterSize) {
  cluster::Cluster cluster(cluster::standard_cluster(4));
  const auto energy = energy::GreenEnergyEstimator::standard(72);
  runtime::JobSpec spec = fast_spec();
  spec.replication = 5;
  EXPECT_THROW(runtime::JobRuntime(cluster, energy, spec),
               common::ConfigError);
  spec.replication = 0;
  EXPECT_THROW(runtime::JobRuntime(cluster, energy, spec),
               common::ConfigError);
}

TEST(ReplicatedJob, FaultFreeRunStaysKOkAndWritesKCopies) {
  const data::Dataset dataset = small_corpus(200);
  runtime::JobSpec spec = fast_spec();
  spec.replication = 2;
  const runtime::JobSummary summary =
      run_job(dataset, nullptr, spec, /*nodes=*/4);
  EXPECT_EQ(summary.status, runtime::JobStatus::kOk);
  EXPECT_FALSE(summary.degraded);
  EXPECT_EQ(summary.elections, 0u);
  // Every ingested record acked on both replicas.
  EXPECT_EQ(summary.replica_writes, 2 * dataset.size());
  EXPECT_EQ(std::accumulate(summary.processed.begin(),
                            summary.processed.end(), std::size_t{0}),
            dataset.size());
}

TEST(ReplicatedJob, SameSeedReplicatedDegradedRunIsByteIdentical) {
  const data::Dataset dataset = small_corpus(200);
  fault::FaultPlan plan;
  plan.seed = 5;
  plan.nodes[3].fail_stop_at_s = 0.0;
  runtime::JobSpec spec = fast_spec();
  spec.replication = 2;
  std::string a;
  std::string b;
  (void)run_job(dataset, &plan, spec, 4, &a);
  (void)run_job(dataset, &plan, spec, 4, &b);
  EXPECT_FALSE(a.empty());
  EXPECT_EQ(a, b);
}

// The checked-in example plan: correlated loss of two replicas at k=3.
// One fail-stop lands before execution, the second mid-run; with three
// copies of every record the job must degrade, not lose data.
TEST(ReplicatedJob, ExamplePlanCorrelatedTwoReplicaLossLosesNothing) {
  const std::string path =
      std::string(HETSIM_REPO_DIR) + "/examples/fault_plan_replica_loss.json";
  std::ifstream in(path, std::ios::binary);
  ASSERT_TRUE(in) << path;
  std::ostringstream buf;
  buf << in.rdbuf();
  const fault::FaultPlan plan = fault::FaultPlan::from_json_text(buf.str());
  ASSERT_EQ(plan.nodes.size(), 2u);

  const data::Dataset dataset = small_corpus(400);
  runtime::JobSpec spec = fast_spec();
  spec.replication = 3;
  const runtime::JobSummary summary =
      run_job(dataset, &plan, spec, /*nodes=*/6);
  EXPECT_EQ(summary.status, runtime::JobStatus::kDegraded);
  EXPECT_EQ(summary.nodes_lost.size(), 2u);
  for (const std::uint32_t node : summary.nodes_lost) {
    EXPECT_TRUE(node == 1 || node == 2) << node;
  }
  EXPECT_GE(summary.elections, 2u);
  EXPECT_GT(summary.replica_rescued_records, 0u);
  EXPECT_EQ(std::accumulate(summary.processed.begin(),
                            summary.processed.end(), std::size_t{0}),
            dataset.size());
}

}  // namespace
}  // namespace hetsim
