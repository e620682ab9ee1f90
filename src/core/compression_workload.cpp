#include "core/compression_workload.h"

#include <numeric>

#include "data/dataset.h"

namespace hetsim::core {

std::string CompressionWorkload::name() const {
  switch (algorithm_) {
    case Algorithm::kWebGraph:
      return "webgraph-compression";
    case Algorithm::kLz77:
      return "lz77-compression";
    case Algorithm::kDeflate:
      return "deflate-compression";
  }
  return "?";
}

void CompressionWorkload::reset(std::size_t num_partitions,
                                std::uint32_t coordinator) {
  (void)coordinator;  // no cross-partition phase
  raw_bytes_.assign(num_partitions, 0);
  compressed_bytes_.assign(num_partitions, 0);
}

void CompressionWorkload::run(cluster::NodeContext& ctx,
                              const data::Dataset& dataset,
                              std::span<const std::uint32_t> indices) {
  std::uint64_t raw = 0;
  std::uint64_t compressed = 0;
  if (algorithm_ == Algorithm::kWebGraph) {
    // Record payloads hold encoded item lists (adjacency for graph data,
    // word ids for documents) — both compress as sorted integer lists.
    std::vector<std::vector<std::uint32_t>> lists;
    lists.reserve(indices.size());
    for (const std::uint32_t i : indices) {
      lists.push_back(data::decode_items(dataset.records[i].payload));
    }
    compress::WebGraphStats stats;
    const std::string blob = compress::compress_adjacency(lists, webgraph_, &stats);
    ctx.meter().add(static_cast<double>(stats.work_ops));
    raw = compress::raw_adjacency_bytes(lists);
    compressed = blob.size();
  } else {
    std::string input;
    std::size_t total = 0;
    for (const std::uint32_t i : indices) {
      total += dataset.records[i].payload.size();
    }
    input.reserve(total);
    for (const std::uint32_t i : indices) {
      input += dataset.records[i].payload;
    }
    std::string blob;
    if (algorithm_ == Algorithm::kLz77) {
      compress::Lz77Stats stats;
      blob = compress::lz77_compress(input, lz77_, &stats);
      ctx.meter().add(static_cast<double>(stats.work_ops));
    } else {
      std::uint64_t ops = 0;
      blob = compress::deflate_compress(input, &ops);
      ctx.meter().add(static_cast<double>(ops));
    }
    raw = input.size();
    compressed = blob.size();
  }
  const std::uint32_t node = ctx.node().id;
  if (node < raw_bytes_.size()) {
    // Accumulate: the job runtime executes a partition as several
    // chunks, each compressed as its own unit.
    raw_bytes_[node] += raw;
    compressed_bytes_[node] += compressed;
  }
}

std::uint64_t CompressionWorkload::total_raw_bytes() const noexcept {
  return std::accumulate(raw_bytes_.begin(), raw_bytes_.end(), std::uint64_t{0});
}

std::uint64_t CompressionWorkload::total_compressed_bytes() const noexcept {
  return std::accumulate(compressed_bytes_.begin(), compressed_bytes_.end(),
                         std::uint64_t{0});
}

double CompressionWorkload::quality() const {
  const std::uint64_t compressed = total_compressed_bytes();
  if (compressed == 0) return 0.0;
  return static_cast<double>(total_raw_bytes()) /
         static_cast<double>(compressed);
}

}  // namespace hetsim::core
