// Distributed compression workload: each node independently compresses
// its partition (paper section V-C.2). Two algorithms:
//   * kWebGraph — BV-style adjacency compression; gains depend on how
//     similar the lists inside a partition are, so the SimilarTogether
//     layout directly improves the ratio;
//   * kLz77 — byte-stream LZ77 over the concatenated partition payloads
//     (Tables II/III; "extremely fast", little heterogeneity benefit);
//   * kDeflate — LZ77 + canonical Huffman (the real-world layering on
//     the paper's reference [26]; extension).
//
// quality() is the aggregate compression ratio raw/compressed.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "compress/huffman.h"
#include "compress/lz77.h"
#include "compress/webgraph.h"
#include "core/workload.h"

namespace hetsim::core {

class CompressionWorkload final : public Workload {
 public:
  enum class Algorithm : std::uint8_t { kWebGraph, kLz77, kDeflate };

  explicit CompressionWorkload(Algorithm algorithm,
                               compress::WebGraphCodecConfig webgraph = {},
                               compress::Lz77Config lz77 = {})
      : algorithm_(algorithm), webgraph_(webgraph), lz77_(lz77) {}

  [[nodiscard]] std::string name() const override;
  [[nodiscard]] partition::Layout preferred_layout() const override {
    return partition::Layout::kSimilarTogether;
  }
  void reset(std::size_t num_partitions,
             std::uint32_t coordinator) override;
  void run(cluster::NodeContext& ctx, const data::Dataset& dataset,
           std::span<const std::uint32_t> indices) override;

  /// Aggregate compression ratio raw_bytes / compressed_bytes.
  [[nodiscard]] double quality() const override;

  [[nodiscard]] std::uint64_t total_raw_bytes() const noexcept;
  [[nodiscard]] std::uint64_t total_compressed_bytes() const noexcept;
  [[nodiscard]] Algorithm algorithm() const noexcept { return algorithm_; }

 private:
  Algorithm algorithm_;
  compress::WebGraphCodecConfig webgraph_;
  compress::Lz77Config lz77_;
  std::vector<std::uint64_t> raw_bytes_;
  std::vector<std::uint64_t> compressed_bytes_;
};

}  // namespace hetsim::core
