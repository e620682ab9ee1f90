// Anti-entropy repair: reconcile a stale replica against an authority
// by exchanging invertible-Bloom-filter sketches and shipping only the
// delta.
//
// Each side summarizes its store as a set of 64-bit items, one per key:
// item = H(key) combined with the value digest, so a key counts as
// "different" when either it is missing on one side or its value
// diverged. Subtracting the two sketches and peeling yields exactly the
// symmetric difference: items only the authority holds become copies,
// items only the target holds resolve to copies (divergent value — the
// authority's version also peels out) or deletes (key the authority
// never had). The authority always wins; repair is one-directional.
//
// A sketch sized below the true difference is undecodable; plan_repair
// then doubles the cell count and retries, accumulating the wire bytes
// of every attempt. Wire cost = sketches exchanged + the delta payload
// — never the full keyspace — which is the property bench_ha's repair
// metrics surface.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "ha/ibf.h"
#include "kvstore/store.h"

namespace hetsim::ha {

/// Restricts a repair to the keys both parties are supposed to hold
/// (e.g. "keys whose route contains both nodes" in a sharded group).
/// Null means "the whole store" — only correct when the two stores
/// replicate the same keyspace.
using KeyFilter = std::function<bool(const std::string&)>;

struct RepairConfig {
  /// Sketch hash seed; both sides must agree (ha-level analogue of the
  /// shard-map seed).
  std::uint64_t seed = 0x1bf;
  /// Starting cell count; sized for a handful of divergent keys.
  std::size_t initial_cells = 64;
  /// Give-up bound for the doubling loop. Throws common::ConfigError
  /// when even this many cells cannot decode (difference ~ keyspace —
  /// full resync territory, not anti-entropy's job).
  std::size_t max_cells = 1U << 20U;
};

struct RepairPlan {
  bool decoded = false;
  /// Sketch exchanges performed (1 = first size decoded).
  std::size_t rounds = 0;
  /// Final (decoding) cell count.
  std::size_t cells = 0;
  /// Keys to copy authority -> target (missing or divergent there).
  std::vector<std::string> copy_keys;
  /// Keys to delete on the target (authority never had them).
  std::vector<std::string> delete_keys;
  /// Total sketch bytes shipped across all rounds, both directions.
  std::size_t ibf_wire_bytes = 0;
};

/// Compute the repair delta between the two stores, restricted to keys
/// passing `filter`. Pure inspection: touches neither store.
[[nodiscard]] RepairPlan plan_repair(const kvstore::Store& authority,
                                     const kvstore::Store& target,
                                     const RepairConfig& config = {},
                                     const KeyFilter& filter = nullptr);

struct RepairReport {
  std::size_t copied = 0;
  std::size_t deleted = 0;
  /// Encoded bytes of the copied values + their keys (the delta
  /// payload that crossed the wire).
  std::size_t payload_bytes = 0;
};

/// Execute the plan against the target store.
RepairReport apply_repair(const kvstore::Store& authority,
                          kvstore::Store& target, const RepairPlan& plan);

/// plan_repair + apply_repair in one call.
RepairReport repair(const kvstore::Store& authority, kvstore::Store& target,
                    const RepairConfig& config = {},
                    const KeyFilter& filter = nullptr);

}  // namespace hetsim::ha
