#include "ha/repair.h"

#include <map>

#include "common/error.h"
#include "common/hash.h"

namespace hetsim::ha {

namespace {

/// 64-bit identity of (key, current value) — differs when either the
/// key or its value differs.
std::uint64_t item_of(const kvstore::Store& store, const std::string& key) {
  return common::hash_combine(common::hash_bytes(key),
                              store.value_digest(key));
}

/// item -> key for one store. std::map gives deterministic iteration
/// (not needed for correctness — decode output is sorted — but keeps
/// every intermediate deterministic too).
std::map<std::uint64_t, std::string> item_index(const kvstore::Store& store,
                                                const KeyFilter& filter) {
  std::map<std::uint64_t, std::string> index;
  for (const std::string& key : store.keys()) {
    if (filter && !filter(key)) continue;
    index.emplace(item_of(store, key), key);
  }
  return index;
}

}  // namespace

RepairPlan plan_repair(const kvstore::Store& authority,
                       const kvstore::Store& target,
                       const RepairConfig& config, const KeyFilter& filter) {
  common::require<common::ConfigError>(
      config.initial_cells >= Ibf::kHashes &&
          config.initial_cells <= config.max_cells,
      "RepairConfig: initial_cells out of range");

  const std::map<std::uint64_t, std::string> auth_index =
      item_index(authority, filter);
  const std::map<std::uint64_t, std::string> tgt_index =
      item_index(target, filter);

  RepairPlan plan;
  Ibf::Decode decode;
  for (std::size_t cells = config.initial_cells; cells <= config.max_cells;
       cells *= 2) {
    Ibf sketch_auth(cells, config.seed);
    Ibf sketch_tgt(cells, config.seed);
    for (const auto& [item, key] : auth_index) {
      (void)key;
      sketch_auth.add(item);
    }
    for (const auto& [item, key] : tgt_index) {
      (void)key;
      sketch_tgt.add(item);
    }
    ++plan.rounds;
    // Both directions ship their sketch each round.
    plan.ibf_wire_bytes += sketch_auth.wire_bytes() + sketch_tgt.wire_bytes();
    plan.cells = cells;
    sketch_auth.subtract(sketch_tgt);
    decode = sketch_auth.decode();
    if (decode.ok) {
      plan.decoded = true;
      break;
    }
  }
  common::require<common::ConfigError>(
      plan.decoded,
      "plan_repair: difference undecodable at max_cells — replica needs a "
      "full resync, not anti-entropy");

  // Authority-only items: copy. Target-only items: the target's version
  // of a divergent key (its authority version also peeled as extra, so
  // the copy already covers it) or a key the authority never had.
  for (const std::uint64_t item : decode.extra) {
    plan.copy_keys.push_back(auth_index.at(item));
  }
  for (const std::uint64_t item : decode.missing) {
    const std::string& key = tgt_index.at(item);
    if (!authority.exists(key)) plan.delete_keys.push_back(key);
  }
  return plan;
}

RepairReport apply_repair(const kvstore::Store& authority,
                          kvstore::Store& target, const RepairPlan& plan) {
  RepairReport report;
  for (const std::string& key : plan.copy_keys) {
    const std::optional<std::string> encoded = authority.encode_value(key);
    if (!encoded) continue;  // raced away; nothing to copy
    target.restore_value(key, *encoded);
    ++report.copied;
    report.payload_bytes += key.size() + encoded->size();
  }
  for (const std::string& key : plan.delete_keys) {
    if (target.del(key)) ++report.deleted;
  }
  return report;
}

RepairReport repair(const kvstore::Store& authority, kvstore::Store& target,
                    const RepairConfig& config, const KeyFilter& filter) {
  return apply_repair(authority, target,
                      plan_repair(authority, target, config, filter));
}

}  // namespace hetsim::ha
