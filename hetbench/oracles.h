// Correctness oracles for the benchmark's jobs.
//
// Each check compares a job's output against a computation made apart
// from the pipeline (a whole-corpus run of a different mining method,
// sizes summed straight from the dataset, a codec round trip, the
// waterfill property of the plan) — never against a stored copy of an
// earlier run's output. A check returns an empty string when it passes
// and a one-line reason when it fails.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "compress/webgraph.h"
#include "data/dataset.h"
#include "data/tree.h"
#include "optimize/pareto.h"
#include "runtime/runtime.h"

namespace hetbench {

using Verdict = std::string;

/// The job finished with JobStatus::kOk.
[[nodiscard]] Verdict check_status(const hetsim::runtime::JobSummary& s);

/// Σ processed and Σ initial_sizes both equal `records`, with one entry
/// per node in each.
[[nodiscard]] Verdict check_conservation(const hetsim::runtime::JobSummary& s,
                                         std::size_t records,
                                         std::size_t nodes);

/// Dirty energy is finite and non-negative.
[[nodiscard]] Verdict check_energy(const hetsim::runtime::JobSummary& s);

/// `got` equals the independently computed `expected`.
[[nodiscard]] Verdict check_equal(std::string_view what, std::uint64_t got,
                                  std::uint64_t expected);

/// Frequent labelled subtrees of the whole, unpartitioned corpus, mined
/// by mining::mine_subtrees (SON is exact, so the distributed job must
/// find the same number).
[[nodiscard]] std::size_t reference_subtree_count(
    std::span<const hetsim::data::LabeledTree> trees, double support,
    std::uint32_t max_nodes);

/// Frequent itemsets of the whole corpus by mining::fpgrowth (a
/// different algorithm from the job's SON-Apriori).
[[nodiscard]] std::size_t reference_itemset_count(
    const hetsim::data::Dataset& dataset, double support,
    std::uint32_t max_length);

/// Σ(4 + 4·|items|) over the dataset: the raw size of every adjacency
/// list as the webgraph codec accounts it.
[[nodiscard]] std::uint64_t reference_raw_bytes(
    const hetsim::data::Dataset& dataset);

/// Every record's item list, as the compression job sees it.
[[nodiscard]] std::vector<std::vector<std::uint32_t>> adjacency_lists(
    const hetsim::data::Dataset& dataset);

/// `blob` decompresses to exactly `lists`, and is smaller than their raw
/// size (ratio > 1). Decoder errors count as failures.
[[nodiscard]] Verdict check_lossless(
    const std::vector<std::vector<std::uint32_t>>& lists,
    std::string_view blob,
    const hetsim::compress::WebGraphCodecConfig& config = {});

/// The Het-Aware plan waterfills the models: Σ sizes == total, and the
/// nodes with records finish at one level up to a record each: some L
/// has |m_i·x_i + c_i - L| <= m_i for all of them (checked pairwise,
/// which on a line is the same thing).
[[nodiscard]] Verdict check_waterfill(
    std::span<const hetsim::optimize::NodeModel> models,
    std::span<const std::size_t> sizes, std::size_t total);

}  // namespace hetbench
