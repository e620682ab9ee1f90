#include "oracles.h"

#include <cmath>
#include <exception>
#include <numeric>

#include "mining/fpgrowth.h"
#include "mining/treeminer.h"

namespace hetbench {

using namespace hetsim;

namespace {

std::size_t sum(std::span<const std::size_t> values) {
  return std::accumulate(values.begin(), values.end(), std::size_t{0});
}

}  // namespace

Verdict check_status(const runtime::JobSummary& s) {
  if (s.status == runtime::JobStatus::kOk) return {};
  return "status is not ok (failed phase '" + s.failed_phase +
         "': " + s.failure_detail + ")";
}

Verdict check_conservation(const runtime::JobSummary& s, std::size_t records,
                           std::size_t nodes) {
  if (s.processed.size() != nodes || s.initial_sizes.size() != nodes) {
    return "expected one processed / initial_sizes entry per node (" +
           std::to_string(nodes) + "), got " +
           std::to_string(s.processed.size()) + " / " +
           std::to_string(s.initial_sizes.size());
  }
  const std::size_t processed = sum(s.processed);
  if (processed != records) {
    return "sum(processed) = " + std::to_string(processed) + " != " +
           std::to_string(records) + " records";
  }
  const std::size_t planned = sum(s.initial_sizes);
  if (planned != records) {
    return "sum(initial_sizes) = " + std::to_string(planned) + " != " +
           std::to_string(records) + " records";
  }
  return {};
}

Verdict check_energy(const runtime::JobSummary& s) {
  if (std::isfinite(s.dirty_energy_j) && s.dirty_energy_j >= 0.0) return {};
  return "dirty energy " + std::to_string(s.dirty_energy_j) + " J is negative";
}

Verdict check_equal(std::string_view what, std::uint64_t got,
                    std::uint64_t expected) {
  if (got == expected) return {};
  return std::string(what) + " = " + std::to_string(got) +
         ", independent computation gives " + std::to_string(expected);
}

std::size_t reference_subtree_count(std::span<const data::LabeledTree> trees,
                                    double support, std::uint32_t max_nodes) {
  return mining::mine_subtrees(trees, {.min_support = support,
                                       .max_pattern_nodes = max_nodes})
      .frequent.size();
}

std::size_t reference_itemset_count(const data::Dataset& dataset,
                                    double support, std::uint32_t max_length) {
  std::vector<data::ItemSet> transactions;
  transactions.reserve(dataset.records.size());
  for (const data::Record& r : dataset.records) {
    transactions.push_back(r.items);
  }
  return mining::fpgrowth(transactions, {.min_support = support,
                                         .max_pattern_length = max_length})
      .frequent.size();
}

std::uint64_t reference_raw_bytes(const data::Dataset& dataset) {
  std::uint64_t bytes = 0;
  for (const data::Record& r : dataset.records) {
    bytes += 4 + 4 * static_cast<std::uint64_t>(r.items.size());
  }
  return bytes;
}

std::vector<std::vector<std::uint32_t>> adjacency_lists(
    const data::Dataset& dataset) {
  std::vector<std::vector<std::uint32_t>> lists;
  lists.reserve(dataset.records.size());
  for (const data::Record& r : dataset.records) lists.push_back(r.items);
  return lists;
}

Verdict check_lossless(const std::vector<std::vector<std::uint32_t>>& lists,
                       std::string_view blob,
                       const compress::WebGraphCodecConfig& config) {
  std::vector<std::vector<std::uint32_t>> decoded;
  try {
    decoded = compress::decompress_adjacency(blob, lists.size(), config);
  } catch (const std::exception& e) {
    return std::string("decompress_adjacency failed: ") + e.what();
  }
  if (decoded != lists) return "decompressed lists differ from the input";
  const std::uint64_t raw = compress::raw_adjacency_bytes(lists);
  if (blob.empty() || raw <= blob.size()) {
    return "compression ratio " + std::to_string(raw) + "/" +
           std::to_string(blob.size()) + " is not above 1";
  }
  return {};
}

Verdict check_waterfill(std::span<const optimize::NodeModel> models,
                        std::span<const std::size_t> sizes,
                        std::size_t total) {
  if (models.size() != sizes.size()) {
    return "plan has " + std::to_string(sizes.size()) + " sizes for " +
           std::to_string(models.size()) + " node models";
  }
  if (sum(sizes) != total) {
    return "plan places " + std::to_string(sum(sizes)) + " of " +
           std::to_string(total) + " records";
  }
  for (std::size_t i = 0; i < sizes.size(); ++i) {
    if (sizes[i] == 0) continue;
    const double ti = models[i].time_s(static_cast<double>(sizes[i]));
    for (std::size_t j = 0; j < sizes.size(); ++j) {
      if (sizes[j] == 0) continue;
      const double tj = models[j].time_s(static_cast<double>(sizes[j]));
      // Rounding a continuous waterfill level L to whole records puts
      // each finish within its own slope of L: |T_i - L| <= m_i.
      const double slack = models[i].slope + models[j].slope;
      if (std::abs(ti - tj) > slack * (1.0 + 1e-9)) {
        return "predicted finish of node " + std::to_string(i) + " (" +
               std::to_string(ti) + " s) and node " + std::to_string(j) +
               " (" + std::to_string(tj) + " s) differ by more than one "
               "record's slope";
      }
    }
  }
  return {};
}

}  // namespace hetbench
